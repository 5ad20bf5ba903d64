package bulk

import (
	"math/big"
	"testing"

	"bulkgcd/internal/checkpoint"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
)

// TestJournalFingerprintPinned pins the journal fingerprint bytes for a
// fixed corpus and configuration. A journal written by an earlier build
// resumes only if its header fingerprint still matches, so any change to
// these values breaks resume of existing journals.
func TestJournalFingerprintPinned(t *testing.T) {
	var moduli []*mpnat.Nat
	for _, h := range []string{
		"c5f1d3a9e7b2468f0d1c3b5a79e8f6a1", // arbitrary odd values: the
		"9b3e5d7f1a2c4e6081b3d5f7092a4c6d", // fingerprint hashes the hex
		"f00dfacecafebeef0123456789abcdef", // text, not the arithmetic
		"10000000000000000000000000000001",
	} {
		n, ok := new(big.Int).SetString(h, 16)
		if !ok {
			t.Fatalf("bad hex %q", h)
		}
		moduli = append(moduli, mpnat.FromBig(n))
	}
	for _, c := range []struct {
		name   string
		header func([]*mpnat.Nat, Config) (checkpoint.Header, error)
		cfg    Config
		want   string
	}{
		{"allpairs", JournalHeader,
			Config{Algorithm: gcd.Approximate, Early: true, GroupSize: 2},
			"4699fc6558f1c73f33bc478a4c058edb6de3d1983f129608976b0069188f24b6"},
		{"allpairs/binary-quarantine", JournalHeader,
			Config{Algorithm: gcd.Binary, Quarantine: true, GroupSize: 2},
			"43afe01dc7668f97ac9e4108a6273311daf2554c98c0ea9edbc759ab756ba16c"},
		{"hybrid/tile=2", HybridJournalHeader,
			Config{Algorithm: gcd.Approximate, Early: true, TileSize: 2},
			"4636593d3915f9a8889eeccd9d57904c86a6ded78e4af1e1b62c72d6e48a2579"},
	} {
		h, err := c.header(moduli, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h.Fingerprint != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, h.Fingerprint, c.want)
		}
	}
}
