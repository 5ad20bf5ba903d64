package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"bulkgcd/internal/mpnat"
	"bulkgcd/internal/obs"
)

// writeNodeV1 rewrites the node file of k in the bgrn1 layout: a JSON
// header whose fingerprint hashes the version "bgrn1", then the value
// as packed little-endian 32-bit words.
func writeNodeV1(t *testing.T, path string, k nodeKey, leafHex func(int) string, v *big.Int) {
	t.Helper()
	lo, hi := k.span()
	h := sha256.New()
	fmt.Fprintf(h, "bgrn1|%d|%d\n", k.level, k.index)
	for i := lo; i < hi; i++ {
		h.Write([]byte(leafHex(i)))
		h.Write([]byte{'\n'})
	}
	body := mpnat.FromBig(v).AppendWordBytes(nil)
	hdr, err := json.Marshal(struct {
		V     string `json:"v"`
		Level int    `json:"level"`
		Index int    `json:"index"`
		FP    string `json:"fp"`
		Words int    `json:"words"`
	}{"bgrn1", k.level, k.index, hex.EncodeToString(h.Sum(nil)), len(body) / 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append(hdr, '\n'), body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// verdictString renders everything a caller can observe of a verdict.
func verdictString(v Verdict) string {
	s := fmt.Sprintf("%d %s %q g=%s", v.Index, v.Kind, v.Reason, v.G.Text(16))
	for _, p := range v.Partners {
		s += fmt.Sprintf(" [%d %s %v]", p.Index, p.Factor.Text(16), p.Dup)
	}
	return s
}

// brokenString renders a Broken() result.
func brokenString(bs []BrokenKey) string {
	s := ""
	for _, b := range bs {
		s += fmt.Sprintf("%d:%s ", b.Index, b.G.Text(16))
	}
	return s
}

// TestNodeFormatUpgrade: a registry whose node files are all in the
// previous bgrn1 format reopens under bgrn2, rejects every old file,
// rebuilds what it needs, and answers exactly like a fresh registry
// over the same keys.
func TestNodeFormatUpgrade(t *testing.T) {
	moduli := weakModuli(t, 300, 128, 8, 71) // > seedSpan, so rebuilds take the subprod path too
	first, rest := moduli[:290], moduli[290:]

	dir := t.TempDir()
	r := openT(t, dir, Config{})
	if _, err := r.SubmitBatch(first); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "nodes", "*.node"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no node files: %v", err)
	}
	for _, p := range paths {
		var k nodeKey
		if _, err := fmt.Sscanf(filepath.Base(p), "%02d-%08x.node", &k.level, &k.index); err != nil {
			t.Fatal(err)
		}
		v := r.store.read(k)
		if v == nil {
			t.Fatalf("node %v does not validate before the downgrade", k)
		}
		writeNodeV1(t, p, k, r.leafHex, v)
		if r.store.read(k) != nil {
			t.Fatalf("bgrn1 node %v validates under %s", k, nodeFileVersion)
		}
	}

	upgraded := openT(t, dir, Config{Metrics: obs.NewRegistry()})
	defer upgraded.Close()
	fresh := openT(t, t.TempDir(), Config{})
	defer fresh.Close()
	if _, err := fresh.SubmitBatch(first); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, n := range rest {
		got, want := mustSubmit(t, upgraded, n), mustSubmit(t, fresh, n)
		if verdictString(got) != verdictString(want) {
			t.Fatalf("submit %d after the upgrade:\n got %s\nwant %s", i, verdictString(got), verdictString(want))
		}
		if got.Kind != Clean {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no submission after the upgrade shared a factor; the descent went untested")
	}
	if got, want := brokenString(upgraded.Broken()), brokenString(fresh.Broken()); got != want {
		t.Fatalf("Broken() differs after the upgrade:\n got %s\nwant %s", got, want)
	}
	st := upgraded.Stats()
	if st.NodeLoads != 0 || st.NodeBuilds == 0 {
		t.Fatalf("node loads %d, builds %d: want every bgrn1 file rejected and rebuilt", st.NodeLoads, st.NodeBuilds)
	}
	for _, root := range rootsOf(upgraded.Len()) {
		if root.level > 0 && upgraded.store.read(root) == nil {
			t.Fatalf("root %v was not rewritten as %s", root, nodeFileVersion)
		}
	}
}
