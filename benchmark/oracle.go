package main

// Ground-truth checks. Every expectation comes from how the inputs were
// built (which primes each key holds), never from the program's own
// arithmetic, so a wrong answer cannot check itself.

import (
	"fmt"
	"math/big"
	"sort"

	"bulkgcd"
	"bulkgcd/internal/rsakey"
)

var one = big.NewInt(1)

// checkScan verifies one Attack.Run report: exactly the planted keys are
// broken, each with its true factors, its planted partner (-1 from the
// batch engine, which has no revealing pair) and a working private
// exponent, and exactly the planted duplicates are reported.
func checkScan(c *scanCorpus, rep *bulkgcd.Report) error {
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if rep.Canceled || len(rep.BadPairs) > 0 || len(rep.Quarantined) > 0 {
		return fmt.Errorf("incomplete run: canceled=%v bad pairs=%d quarantined=%d",
			rep.Canceled, len(rep.BadPairs), len(rep.Quarantined))
	}
	broken := map[int]bool{}
	for _, bk := range rep.Broken {
		i := bk.Index
		want, planted := c.Partner[i]
		if !planted {
			return fmt.Errorf("key %d reported broken, but no prime was planted there", i)
		}
		if broken[i] {
			return fmt.Errorf("key %d reported broken twice", i)
		}
		broken[i] = true
		k := c.Keys[i]
		if bk.N == nil || bk.P == nil || bk.Q == nil || bk.N.Cmp(k.N) != 0 || bk.P.Cmp(k.P) != 0 || bk.Q.Cmp(k.Q) != 0 {
			return fmt.Errorf("key %d: reported factors are not its primes", i)
		}
		if rep.Engine == bulkgcd.EngineBatch {
			want = -1
		}
		if bk.FoundWith != want {
			return fmt.Errorf("key %d: found with %d, planted partner is %d", i, bk.FoundWith, want)
		}
		if !validPrivate(k, bk.D) {
			return fmt.Errorf("key %d: recovered private exponent is wrong", i)
		}
	}
	if len(broken) != len(c.Partner) {
		return fmt.Errorf("%d of %d planted keys reported broken", len(broken), len(c.Partner))
	}
	got := make([][2]int, len(rep.Duplicates))
	for i, d := range rep.Duplicates {
		if d[0] > d[1] {
			d[0], d[1] = d[1], d[0]
		}
		got[i] = d
	}
	sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] })
	if fmt.Sprint(got) != fmt.Sprint(c.Dups) {
		return fmt.Errorf("duplicates %v, planted %v", got, c.Dups)
	}
	return nil
}

// validPrivate reports whether d inverts e modulo (P-1)(Q-1).
func validPrivate(k key, d *big.Int) bool {
	if d == nil {
		return false
	}
	phi := new(big.Int).Mul(new(big.Int).Sub(k.P, one), new(big.Int).Sub(k.Q, one))
	ed := new(big.Int).Mul(d, big.NewInt(rsakey.DefaultExponent))
	return ed.Mod(ed, phi).Cmp(one) == 0
}

// checkVerdict verifies one registry verdict against the submission's
// expected kind, index, batch-GCD value and partner list.
func checkVerdict(want submission, got bulkgcd.KeyVerdict) error {
	if got.Kind.String() != want.Kind {
		return fmt.Errorf("verdict %s, want %s", got.Kind, want.Kind)
	}
	if got.Index != want.Index {
		return fmt.Errorf("%s verdict at index %d, want %d", want.Kind, got.Index, want.Index)
	}
	if want.Kind == "malformed" {
		if got.Reason == "" {
			return fmt.Errorf("malformed verdict without a reason")
		}
		return nil
	}
	if len(got.Partners) != len(want.Partners) {
		return fmt.Errorf("index %d: %d partners, want %d", want.Index, len(got.Partners), len(want.Partners))
	}
	g := big.NewInt(1)
	for i, p := range want.Partners {
		q := got.Partners[i]
		if q.Index != p.Index || q.Duplicate != p.Dup || q.Factor == nil || q.Factor.Cmp(p.Factor) != 0 {
			return fmt.Errorf("index %d: partner %d is (%d, dup=%v), want (%d, dup=%v) with its shared factor",
				want.Index, i, q.Index, q.Duplicate, p.Index, p.Dup)
		}
		d := new(big.Int).GCD(nil, nil, g, p.Factor)
		g.Mul(g, p.Factor).Quo(g, d) // g = lcm(g, factor)
	}
	if got.G == nil || got.G.Cmp(g) != 0 {
		return fmt.Errorf("index %d: G is not the shared part of the modulus", want.Index)
	}
	return nil
}

// checkBatch verifies the verdicts of one bulk-load batch whose first
// key gets registry index lo. Bulk-load keys are clean by construction.
func checkBatch(keys []key, lo int, vs []bulkgcd.KeyVerdict) error {
	if len(vs) != len(keys) {
		return fmt.Errorf("batch at %d: %d verdicts for %d keys", lo, len(vs), len(keys))
	}
	for i, v := range vs {
		if err := checkVerdict(submission{Key: keys[i], Kind: "clean", Index: lo + i}, v); err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
	}
	return nil
}
