package mpnat

import (
	"math/big"
	"math/rand"
	"testing"
)

// This file is the differential harness for Nat.Mul (mul.go), the
// schoolbook loop, against the math/big oracle at small and large
// operand sizes. The shapes are chosen to maximize carry and borrow
// stress: all-ones words, single set bits at word boundaries, ragged
// operand pairs, zero and one limbs.

// mulSizes are the word counts the harness drives: the small cases,
// sizes around the 64-word (2048-bit) modulus, and large operands.
var mulSizes = []int{0, 1, 2, 3, 7, 23, 24, 25, 63, 64, 65, 255, 256, 257}

// randNat returns a Nat of exactly words words (top word forced
// non-zero) drawn from r.
func randNat(r *rand.Rand, words int) *Nat {
	if words == 0 {
		return &Nat{}
	}
	ws := make([]uint32, words)
	for i := range ws {
		ws[i] = r.Uint32()
	}
	for ws[words-1] == 0 {
		ws[words-1] = r.Uint32()
	}
	return NewFromWords(ws)
}

// onesNat returns the Nat with words words all 0xFFFFFFFF — the
// maximum-carry operand (B^n - 1).
func onesNat(words int) *Nat {
	ws := make([]uint32, words)
	for i := range ws {
		ws[i] = 0xFFFFFFFF
	}
	return NewFromWords(ws)
}

// bitNat returns 2^bit.
func bitNat(bit int) *Nat {
	ws := make([]uint32, bit/32+1)
	ws[bit/32] = 1 << (bit % 32)
	return NewFromWords(ws)
}

// checkMul verifies z = x*y against the math/big oracle.
func checkMul(t *testing.T, x, y *Nat) {
	t.Helper()
	want := new(big.Int).Mul(x.ToBig(), y.ToBig())
	if got := new(Nat).Mul(x, y); got.ToBig().Cmp(want) != 0 {
		t.Fatalf("Mul(%d words, %d words): got %s, want %s",
			x.Len(), y.Len(), got.Hex(), want.Text(16))
	}
}

// TestMulSizes drives every (xWords, yWords) pair of mulSizes, which
// includes the ragged combinations, against the oracle.
func TestMulSizes(t *testing.T) {
	r := rand.New(rand.NewSource(600))
	for _, xs := range mulSizes {
		for _, ys := range mulSizes {
			checkMul(t, randNat(r, xs), randNat(r, ys))
		}
	}
}

// TestMulSpecialLimbs covers the degenerate and carry-extreme operand
// shapes at small and large sizes: zero, one, powers of two at word
// boundaries, and all-ones words.
func TestMulSpecialLimbs(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	for _, n := range []int{1, 23, 24, 25, 256, 257, 512} {
		specials := []*Nat{
			&Nat{},                 // zero
			New(1),                 // one
			onesNat(n),             // B^n - 1: maximum carry chains
			bitNat(32*nolt(n) - 1), // top bit of the band
			bitNat(32 * (n - n/2)), // power of two on a word boundary
			randNat(r, n),
		}
		for _, x := range specials {
			for _, y := range specials {
				checkMul(t, x, y)
			}
		}
	}
}

// nolt guards bitNat's argument for n >= 1.
func nolt(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// TestMulRaggedPairs stresses unbalanced shapes: one operand many
// times longer than the other, in both argument orders.
func TestMulRaggedPairs(t *testing.T) {
	r := rand.New(rand.NewSource(602))
	for _, base := range []int{24, 256} {
		for _, ratio := range []int{2, 3, 5} {
			for _, off := range []int{-1, 0, 1, base / 2} {
				long := base*ratio + off
				if long < 1 {
					continue
				}
				checkMul(t, randNat(r, long), randNat(r, base))
				checkMul(t, randNat(r, base), randNat(r, long))
			}
		}
	}
}

// TestMulAliasingAllBands checks every aliasing combination the Mul
// contract allows at small, modulus-sized and large operands (the
// small-operand case is also TestMulAliasing in modular_test.go).
func TestMulAliasingAllBands(t *testing.T) {
	r := rand.New(rand.NewSource(603))
	for _, n := range []int{3, 65, 257} {
		x0, y0 := randNat(r, n), randNat(r, n)
		want := new(big.Int).Mul(x0.ToBig(), y0.ToBig())
		wantSq := new(big.Int).Mul(x0.ToBig(), x0.ToBig())

		z := x0.Clone()
		z.Mul(z, y0.Clone()) // n == x
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("n==x aliasing broken at %d words", n)
		}
		z = y0.Clone()
		z.Mul(x0.Clone(), z) // n == y
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("n==y aliasing broken at %d words", n)
		}
		z = x0.Clone()
		z.Mul(z, z) // n == x == y
		if z.ToBig().Cmp(wantSq) != 0 {
			t.Fatalf("n==x==y aliasing broken at %d words", n)
		}
		if got := new(Nat).Sqr(x0); got.ToBig().Cmp(wantSq) != 0 {
			t.Fatalf("Sqr broken at %d words", n)
		}
	}
}

// TestMulProperties is the property-based leg of the harness: it
// checks commutativity, associativity via 3-way products,
// distributivity over Add, and the Mul-then-DivMod round trip on
// random triples.
func TestMulProperties(t *testing.T) {
	r := rand.New(rand.NewSource(604))
	for trial := 0; trial < 300; trial++ {
		x := randNat(r, r.Intn(40))
		y := randNat(r, r.Intn(40))
		z := randNat(r, r.Intn(40))

		xy := new(Nat).Mul(x, y)
		yx := new(Nat).Mul(y, x)
		if xy.Cmp(yx) != 0 {
			t.Fatalf("trial %d: x*y != y*x", trial)
		}
		l := new(Nat).Mul(xy, z)
		rr := new(Nat).Mul(x, new(Nat).Mul(y, z))
		if l.Cmp(rr) != 0 {
			t.Fatalf("trial %d: (x*y)*z != x*(y*z)", trial)
		}
		d1 := new(Nat).Mul(x, new(Nat).Add(y, z))
		d2 := new(Nat).Add(new(Nat).Mul(x, y), new(Nat).Mul(x, z))
		if d1.Cmp(d2) != 0 {
			t.Fatalf("trial %d: x*(y+z) != x*y + x*z", trial)
		}
		if !y.IsZero() {
			q, rem := DivMod(xy, y)
			if q.Cmp(x) != 0 || !rem.IsZero() {
				t.Fatalf("trial %d: DivMod(x*y, y) != (x, 0)", trial)
			}
		}
	}
}

// TestMulMatchesOldSchoolbook checks the schoolbook loop against the
// oracle at random sizes up to two 2048-bit moduli, the two sizes
// drawn independently.
func TestMulMatchesOldSchoolbook(t *testing.T) {
	r := rand.New(rand.NewSource(608))
	for trial := 0; trial < 50; trial++ {
		x := randNat(r, 1+r.Intn(128))
		y := randNat(r, 1+r.Intn(128))
		want := new(big.Int).Mul(x.ToBig(), y.ToBig())
		if got := new(Nat).Mul(x, y); got.ToBig().Cmp(want) != 0 {
			t.Fatalf("trial %d: schoolbook band mismatch", trial)
		}
	}
}
