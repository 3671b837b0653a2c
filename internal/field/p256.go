package field

import "math/bits"

// The P-256 body: Montgomery arithmetic modulo P-256's prime
// p = 2^256 − 2^224 + 2^192 + 2^96 − 1, with R = 2^256. It is written
// once, on four-limb values: Field's Mul, Sqr, Add and Sub run it through
// the body table, and the curve kernel's P-256 formulas call it
// directly, so that no operation pays the body switch or the width
// branch, and no operand goes through memory.
//
// Its limbs are constants: p₀ = 2^64 − 1 makes n₀ = −p₀⁻¹ = 1, so a
// reduction row's m is the low limb t₀ itself; p₀ + p₁·2^64 = 2^96 − 1
// turns t₀ + m·(p₀ + p₁·2^64) into m·2^96, two shifts; p₂ = 0 costs
// nothing; and m·p₃ = m·2^64 − m·2^32 + m is the same two shifts and a
// subtraction. A row pays no word product, so Mul pays its 16 and Sqr
// its 10.

// The limbs of P-256's prime.
const (
	p256P0 = 1<<64 - 1
	p256P1 = 1<<32 - 1
	p256P3 = 1<<64 - 1<<32 + 1
)

// P256 is the arithmetic of the field with the P-256 body (Field.P256).
type P256 struct{}

// P256Elem is an element of P-256's field, in the field's form x·R mod p,
// as a four-limb value: passed and returned by value it stays in
// registers where an Elem behind a pointer goes through memory.
type P256Elem struct{ l0, l1, l2, l3 uint64 }

// P256 returns the P-256 arithmetic and whether f has the P-256 body.
func (f *Field) P256() (P256, bool) { return P256{}, f.body == p256Body }

// Load returns the element x of P-256's field as a P256Elem.
func (P256) Load(x *Elem) P256Elem { return P256Elem{x[0], x[1], x[2], x[3]} }

// Elem returns x as an Elem of its field.
func (x P256Elem) Elem() Elem { return Elem{x.l0, x.l1, x.l2, x.l3} }

// IsZero reports x == 0.
func (x P256Elem) IsZero() bool { return x.l0|x.l1|x.l2|x.l3 == 0 }

// p256Reduce returns the 257-bit value (top, t3, …, t0), which must be
// below 2p, minus p if it is at least p. The subtraction's last borrow
// picks the result in an if the compiler turns into conditional moves.
// make vet checks that it inlines into Add, Mul and Sqr.
func p256Reduce(t0, t1, t2, t3, top uint64) P256Elem {
	r0, b := bits.Sub64(t0, p256P0, 0)
	r1, b := bits.Sub64(t1, p256P1, b)
	r2, b := bits.Sub64(t2, 0, b)
	r3, b := bits.Sub64(t3, p256P3, b)
	if _, b = bits.Sub64(top, 0, b); b == 0 {
		t0, t1, t2, t3 = r0, r1, r2, r3
	}
	return P256Elem{t0, t1, t2, t3}
}

// p256Row is one Montgomery reduction row: it returns (t + m·p)/2^64 for
// the 257-bit t = (t4, …, t0) with m = t0. t0 + m·(p₀ + p₁·2^64) is
// m·2^96, which enters limbs 1 and 2 as m·2^32, and m·p₃ enters limbs
// 3 and 4 as m·2^64 − m·2^32 + m.
func p256Row(t0, t1, t2, t3, t4 uint64) (r0, r1, r2, r3, r4 uint64) {
	lo, hi := t0<<32, t0>>32
	l3, b := bits.Sub64(t0, lo, 0)
	h3 := t0 - hi - b
	r0, c := bits.Add64(t1, lo, 0)
	r1, c = bits.Add64(t2, hi, c)
	r2, c = bits.Add64(t3, l3, c)
	r3, r4 = bits.Add64(t4, h3, c)
	return r0, r1, r2, r3, r4
}

// Add returns x + y mod p.
func (P256) Add(x, y P256Elem) P256Elem {
	t0, c := bits.Add64(x.l0, y.l0, 0)
	t1, c := bits.Add64(x.l1, y.l1, c)
	t2, c := bits.Add64(x.l2, y.l2, c)
	t3, c := bits.Add64(x.l3, y.l3, c)
	return p256Reduce(t0, t1, t2, t3, c)
}

// Sub returns x − y mod p, adding p back on a borrow: under the borrow's
// mask w, p's limbs are w, w >> 32, 0 and w & p₃.
func (P256) Sub(x, y P256Elem) P256Elem {
	t0, b := bits.Sub64(x.l0, y.l0, 0)
	t1, b := bits.Sub64(x.l1, y.l1, b)
	t2, b := bits.Sub64(x.l2, y.l2, b)
	t3, b := bits.Sub64(x.l3, y.l3, b)
	w := -b
	t0, c := bits.Add64(t0, w, 0)
	t1, c = bits.Add64(t1, w>>32, c)
	t2, c = bits.Add64(t2, 0, c)
	t3, _ = bits.Add64(t3, w&p256P3, c)
	return P256Elem{t0, t1, t2, t3}
}

// Mul returns x·y/R mod p: one row per limb of y, each adding x·y_i to
// the accumulator, its four products first and one carry chain after,
// then a reduction row; 16 word products where the plain four-limb
// Montgomery body pays 36. The accumulator's top limb t4 stays below 2
// between rows, and since x < p puts x₃ at most p₃, the high word of
// x₃·y_i is at most 2^64 − 2^32: adding a row's top word to t4 cannot
// carry out of it.
func (P256) Mul(x, y P256Elem) P256Elem {
	h0, t0 := bits.Mul64(x.l0, y.l0)
	h1, l1 := bits.Mul64(x.l1, y.l0)
	h2, l2 := bits.Mul64(x.l2, y.l0)
	h3, l3 := bits.Mul64(x.l3, y.l0)
	t1, c := bits.Add64(h0, l1, 0)
	t2, c := bits.Add64(h1, l2, c)
	t3, c := bits.Add64(h2, l3, c)
	t4 := h3 + c
	t0, t1, t2, t3, t4 = p256Row(t0, t1, t2, t3, t4)

	h0, l0 := bits.Mul64(x.l0, y.l1)
	h1, l1 = bits.Mul64(x.l1, y.l1)
	h2, l2 = bits.Mul64(x.l2, y.l1)
	h3, l3 = bits.Mul64(x.l3, y.l1)
	u1, c := bits.Add64(h0, l1, 0)
	u2, c := bits.Add64(h1, l2, c)
	u3, c := bits.Add64(h2, l3, c)
	u4 := h3 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3, c = bits.Add64(t3, u3, c)
	t4 += u4 + c
	t0, t1, t2, t3, t4 = p256Row(t0, t1, t2, t3, t4)

	h0, l0 = bits.Mul64(x.l0, y.l2)
	h1, l1 = bits.Mul64(x.l1, y.l2)
	h2, l2 = bits.Mul64(x.l2, y.l2)
	h3, l3 = bits.Mul64(x.l3, y.l2)
	u1, c = bits.Add64(h0, l1, 0)
	u2, c = bits.Add64(h1, l2, c)
	u3, c = bits.Add64(h2, l3, c)
	u4 = h3 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3, c = bits.Add64(t3, u3, c)
	t4 += u4 + c
	t0, t1, t2, t3, t4 = p256Row(t0, t1, t2, t3, t4)

	h0, l0 = bits.Mul64(x.l0, y.l3)
	h1, l1 = bits.Mul64(x.l1, y.l3)
	h2, l2 = bits.Mul64(x.l2, y.l3)
	h3, l3 = bits.Mul64(x.l3, y.l3)
	u1, c = bits.Add64(h0, l1, 0)
	u2, c = bits.Add64(h1, l2, c)
	u3, c = bits.Add64(h2, l3, c)
	u4 = h3 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3, c = bits.Add64(t3, u3, c)
	t4 += u4 + c
	t0, t1, t2, t3, t4 = p256Row(t0, t1, t2, t3, t4)

	return p256Reduce(t0, t1, t2, t3, t4)
}

// Sqr returns x·x/R mod p: the six products x_i·x_j with i < j, doubled
// by a shift, plus the four squares x_i², give the 512-bit square
// t = T_H·2^256 + T_L; four p256Rows take T_L to (T_L + M·p)/2^256 ≤ p,
// and T_H added to it gives t/2^256 mod p below 2p, as a Montgomery
// product must. 10 word products where Mul pays 16.
func (P256) Sqr(x P256Elem) P256Elem {
	// a = Σ x_i·x_j·2^(64(i+j)) over i < j, at limbs 1 to 6.
	h01, a1 := bits.Mul64(x.l0, x.l1)
	h02, l02 := bits.Mul64(x.l0, x.l2)
	h03, l03 := bits.Mul64(x.l0, x.l3)
	h12, l12 := bits.Mul64(x.l1, x.l2)
	h13, l13 := bits.Mul64(x.l1, x.l3)
	h23, l23 := bits.Mul64(x.l2, x.l3)
	a2, c := bits.Add64(h01, l02, 0)
	a3, c := bits.Add64(h02, l03, c)
	a4 := h03 + c
	u4, c := bits.Add64(h12, l13, 0)
	u5 := h13 + c
	a3, c = bits.Add64(a3, l12, 0)
	a4, c = bits.Add64(a4, u4, c)
	a5, c := bits.Add64(u5, l23, c)
	a6 := h23 + c

	// t = 2a + Σ x_i²·2^(128i).
	h0, t0 := bits.Mul64(x.l0, x.l0)
	h1, l1 := bits.Mul64(x.l1, x.l1)
	h2, l2 := bits.Mul64(x.l2, x.l2)
	h3, l3 := bits.Mul64(x.l3, x.l3)
	t1, c := bits.Add64(a1<<1, h0, 0)
	t2, c := bits.Add64(a2<<1|a1>>63, l1, c)
	t3, c := bits.Add64(a3<<1|a2>>63, h1, c)
	t4, c := bits.Add64(a4<<1|a3>>63, l2, c)
	t5, c := bits.Add64(a5<<1|a4>>63, h2, c)
	t6, c := bits.Add64(a6<<1|a5>>63, l3, c)
	t7 := a6>>63 + h3 + c

	var top uint64
	t0, t1, t2, t3, top = p256Row(t0, t1, t2, t3, 0)
	t0, t1, t2, t3, top = p256Row(t0, t1, t2, t3, top)
	t0, t1, t2, t3, top = p256Row(t0, t1, t2, t3, top)
	t0, t1, t2, t3, _ = p256Row(t0, t1, t2, t3, top) // ≤ p: no top
	t0, c = bits.Add64(t0, t4, 0)
	t1, c = bits.Add64(t1, t5, c)
	t2, c = bits.Add64(t2, t6, c)
	t3, c = bits.Add64(t3, t7, c)
	return p256Reduce(t0, t1, t2, t3, c)
}
