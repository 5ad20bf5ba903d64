package mpnat

import "bulkgcd/internal/word"

// Multiplication is schoolbook only. The paper's GCD algorithms never
// multiply two multi-word operands; Mul serves the RSA layer (ModExp,
// Montgomery set-up, key generation) and the tests, where operands are
// a few hundred words at most. Product and remainder trees, which do
// multiply operands of 10^5..10^7 words, run on math/big (DESIGN.md
// section 5f), so there is no subquadratic tier here.

// Mul sets n = x * y and returns n. Aliasing among n, x, y is allowed.
func (n *Nat) Mul(x, y *Nat) *Nat {
	lx, ly := len(x.w), len(y.w)
	if lx == 0 || ly == 0 {
		n.w = n.w[:0]
		return n
	}
	// A fresh buffer keeps the product aliasing-safe.
	out := make([]uint32, lx+ly)
	basicMul(out, x.w, y.w)
	n.w = out
	n.norm()
	return n
}

// Sqr sets n = x * x and returns n.
func (n *Nat) Sqr(x *Nat) *Nat { return n.Mul(x, x) }

// basicMul is the schoolbook O(n*m) loop, writing x*y into dst
// (len(x)+len(y) words, fully overwritten).
func basicMul(dst, x, y []uint32) {
	clear(dst)
	for i := 0; i < len(x); i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		var carry uint32
		for j := 0; j < len(y); j++ {
			hi, lo := word.MulAdd(xi, y[j], dst[i+j], carry)
			dst[i+j] = lo
			carry = hi
		}
		dst[i+len(y)] = carry
	}
}
