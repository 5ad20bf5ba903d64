package attack

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"bulkgcd/internal/bulk"
	"bulkgcd/internal/engine"
	"bulkgcd/internal/gcd"
	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
	"bulkgcd/internal/rsakey"
)

// denseCorpus plants one prime in shared keys at seeded positions among
// clean keys, the pattern all-to-all GCD studies of real corpora find.
// It returns the moduli, the shared prime and the sorted shared indices.
func denseCorpus(t *testing.T, shared, clean, bits int, seed int64) ([]*mpnat.Nat, *big.Int, []int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := rsakey.GeneratePrime(r, bits/2)
	moduli := make([]*mpnat.Nat, shared+clean)
	var idx []int
	for pos, i := range r.Perm(len(moduli)) {
		if pos < shared {
			moduli[i] = mpnat.FromBig(new(big.Int).Mul(p, rsakey.GeneratePrime(r, bits/2)))
			continue
		}
		k, err := rsakey.GenerateKey(r, bits)
		if err != nil {
			t.Fatal(err)
		}
		moduli[i] = k.N
	}
	for i, m := range moduli {
		if new(big.Int).Rem(m.ToBig(), p).Sign() == 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) != shared {
		t.Fatalf("planted %d shared keys, found %d", shared, len(idx))
	}
	return moduli, p, idx
}

// TestRecoverDenseSharing: one prime held by 12 keys is tested once, not
// once per key, and every one of those keys still gets a private
// exponent that decrypts. The three engines run at widths {1, 2, 7} and
// every report matches; in the pairs and hybrid reports the first (I, J)
// factor sets FoundWith at every width: the lowest shared index was
// revealed with the second, every other shared key with the lowest.
func TestRecoverDenseSharing(t *testing.T) {
	const shared = 12
	moduli, p, idx := denseCorpus(t, shared, 9, 256, 91)
	msg := big.NewInt(0xC0FFEE)

	engines := []struct {
		name  string
		opt   Options
		pairs bool
	}{
		{"pairs", Options{Algorithm: gcd.Approximate, Early: true}, true},
		{"hybrid", Options{Engine: engine.Hybrid, Algorithm: gcd.Approximate, Early: true, TileSize: 4}, true},
		{"batch", Options{Engine: engine.Batch}, false},
	}
	var first *Report
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			var base *Report
			for _, w := range []int{1, 2, 7} {
				reg := obs.NewRegistry()
				opt := eng.opt
				opt.Workers = w
				opt.Metrics = reg
				rep, err := Run(moduli, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if len(rep.Broken) != shared {
					t.Fatalf("workers=%d: broke %d keys, want %d", w, len(rep.Broken), shared)
				}
				for i, bk := range rep.Broken {
					if bk.Index != idx[i] || (bk.P.Cmp(p) != 0 && bk.Q.Cmp(p) != 0) {
						t.Fatalf("workers=%d: broken key %d = index %d, want index %d holding the shared prime", w, i, bk.Index, idx[i])
					}
					if bk.D == nil {
						t.Fatalf("workers=%d: key %d has no private exponent", w, bk.Index)
					}
					if got := rsakey.Decrypt(bk.N, bk.D, rsakey.Encrypt(bk.N, rsakey.DefaultExponent, msg)); got.Cmp(msg) != 0 {
						t.Fatalf("workers=%d: key %d: recovered D does not decrypt", w, bk.Index)
					}
					if eng.pairs {
						want := idx[0]
						if bk.Index == idx[0] {
							want = idx[1]
						}
						if bk.FoundWith != want {
							t.Fatalf("workers=%d: key %d FoundWith = %d, want %d", w, bk.Index, bk.FoundWith, want)
						}
					}
				}
				snap := reg.Snapshot()
				if got := snap.Counters["attack_primality_tests_total"]; got != shared+1 {
					t.Fatalf("workers=%d: attack_primality_tests_total = %d, want %d (one shared prime plus %d cofactors)", w, got, shared+1, shared)
				}
				if got := snap.Histograms["attack_recover_seconds"].Count; got != 1 {
					t.Fatalf("workers=%d: attack_recover_seconds has %d observations, want 1", w, got)
				}
				if base == nil {
					base = rep
				} else {
					checkReportsIdentical(t, base, rep)
				}
			}
			if first == nil {
				first = base
			} else {
				checkReportsIdentical(t, first, base)
			}
		})
	}
}

// TestInterpretNonDivisorError forges the Result a fleet coordinator
// could assemble from corrupt records: each factor is a prime of its J
// modulus that does not divide its I modulus, so exactly indices 5 and
// 2 fail. Interpret must fail naming the lower index at every width,
// even though the factor naming the higher one comes first.
func TestInterpretNonDivisorError(t *testing.T) {
	c := weakCorpus(t, 8, 128, 0, 93)
	moduli := c.Moduli()
	res := &bulk.Result{Factors: []bulk.Factor{
		{I: 5, J: 6, P: mpnat.FromBig(c.Keys[6].P)},
		{I: 2, J: 7, P: mpnat.FromBig(c.Keys[7].P)},
	}}
	var errs []string
	for _, w := range []int{1, 7} {
		opt := DefaultOptions()
		opt.Workers = w
		_, err := Interpret(moduli, res, opt)
		if err == nil {
			t.Fatalf("workers=%d: non-dividing factors accepted", w)
		}
		if !strings.Contains(err.Error(), "modulus 2:") {
			t.Fatalf("workers=%d: error %q does not name modulus 2", w, err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("errors differ across widths: %q vs %q", errs[0], errs[1])
	}
}
