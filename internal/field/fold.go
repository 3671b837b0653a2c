package field

import "math/bits"

// The fold body: arithmetic modulo p = 2^160 − c with 0 < c < 2^32
// (secp160r1: c = 2^31 + 1), where R = 1 and a product's top half folds
// down by 2^160 ≡ c. It is written once, on three-limb values: Field's
// Mul, Sqr, Add and Sub run it through the body table, and the curve
// kernel's fold formulas call it directly, so that an add or a subtract
// inlines into the formula and a multiply or a square is one call, with
// no body switch, no width branch and no fourth limb to store.

// Fold is the arithmetic of a field with the fold body (Field.Fold).
type Fold struct{ c uint64 }

// FoldElem is an element of a fold field, in the field's form, as a
// three-limb value: passed and returned by value it stays in registers
// where an Elem behind a pointer goes through memory.
type FoldElem struct{ l0, l1, l2 uint64 }

// low32 masks a fold element's top limb: bits 128 to 159.
const low32 = 1<<32 - 1

// Fold returns f's fold arithmetic and whether f has the fold body.
func (f *Field) Fold() (Fold, bool) { return Fold{f.fold}, f.body == foldBody }

// Load returns the element x of the fold field as a FoldElem.
func (Fold) Load(x *Elem) FoldElem { return FoldElem{x[0], x[1], x[2]} }

// Elem returns x as an Elem of its field.
func (x FoldElem) Elem() Elem { return Elem{x.l0, x.l1, x.l2} }

// IsZero reports x == 0.
func (x FoldElem) IsZero() bool { return x.l0|x.l1|x.l2 == 0 }

// Add returns x + y mod p, for any x and y whose sum is below 2p. The
// sum s is at least p exactly when s + c reaches 2^160, and s − p is then
// s + c − 2^160: the reduction adds c and drops bit 160 instead of
// subtracting p's three limbs, and picks s + c − 2^160 or s in an if the
// compiler turns into conditional moves. Its inlining cost, 80, is the
// budget itself: make vet checks that it still inlines into the curve
// kernel.
func (f Fold) Add(x, y FoldElem) FoldElem {
	s0, k := bits.Add64(x.l0, y.l0, 0)
	s1, k := bits.Add64(x.l1, y.l1, k)
	k += x.l2 + y.l2 // s's top limb
	r0, d := bits.Add64(s0, f.c, 0)
	r1, d := bits.Add64(s1, 0, d)
	if d += k; d > low32 {
		s0, s1, k = r0, r1, d-1<<32
	}
	return FoldElem{s0, s1, k}
}

// Sub returns x − y mod p. On a borrow the difference is x − y + 2^192,
// and adding p to it is subtracting c and dropping 2^192 − 2^160, the
// bits above 160 of a result below p.
func (f Fold) Sub(x, y FoldElem) FoldElem {
	t0, b := bits.Sub64(x.l0, y.l0, 0)
	t1, b := bits.Sub64(x.l1, y.l1, b)
	t2, b := bits.Sub64(x.l2, y.l2, b)
	z0, b := bits.Sub64(t0, f.c&-b, 0)
	z1, b := bits.Sub64(t1, 0, b)
	return FoldElem{z0, z1, (t2 - b) & low32}
}

// Mul returns x·y mod p: the 3×3 schoolbook product, one row per limb
// of y, and the fold reduction, 9 + 4 word products where mul3 pays 21.
// The product t = H·2^160 + L folds to s = L + H·c < 2^160·(c+1) ≤ 2^192
// (three word products, H's top limb below 2^32), which folds once more
// to below 2^160 + 2^64 < 2p (one), and Add's reduction finishes. Sqr
// repeats the two folds rather than share them: a call between the
// products and their reduction cost a tenth of a doubling.
func (f Fold) Mul(x, y FoldElem) FoldElem {
	// t = x·y in five limbs; x, y < 2^160, so the sixth is zero.
	h0, t0 := bits.Mul64(x.l0, y.l0)
	h1, l1 := bits.Mul64(x.l1, y.l0)
	h2, l2 := bits.Mul64(x.l2, y.l0)
	t1, c := bits.Add64(h0, l1, 0)
	t2, c := bits.Add64(h1, l2, c)
	t3 := h2 + c

	h0, l0 := bits.Mul64(x.l0, y.l1)
	h1, l1 = bits.Mul64(x.l1, y.l1)
	h2, l2 = bits.Mul64(x.l2, y.l1)
	u1, c := bits.Add64(h0, l1, 0)
	u2, c := bits.Add64(h1, l2, c)
	u3 := h2 + c
	t1, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 := u3 + c

	// x.l2, y.l2 < 2^32: their product is one word.
	h0, l0 = bits.Mul64(x.l0, y.l2)
	h1, l1 = bits.Mul64(x.l1, y.l2)
	u1, c = bits.Add64(h0, l1, 0)
	u2 = h1 + x.l2*y.l2 + c
	t2, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, u1, c)
	t4 += u2 + c

	// s = L + H·c, H = t >> 160 on three limbs.
	h0, l0 = bits.Mul64(t2>>32|t3<<32, f.c)
	h1, l1 = bits.Mul64(t3>>32|t4<<32, f.c)
	u1, c = bits.Add64(h0, l1, 0)
	u2 = h1 + (t4>>32)*f.c + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2 = t2&low32 + u2 + c

	// Fold s >> 160 < 2^32 once more: its product with c is one word.
	t0, c = bits.Add64(t0, (t2>>32)*f.c, 0)
	t1, c = bits.Add64(t1, 0, c)
	return f.Add(FoldElem{t0, t1, t2&low32 + c}, FoldElem{}) // s < 2p
}

// Sqr returns x² mod p: the three products x_i·x_j with i < j, doubled
// by a shift, plus the three squares x_i², and Mul's reduction. 6 + 4
// word products.
func (f Fold) Sqr(x FoldElem) FoldElem {
	// a = Σ x_i·x_j·2^(64(i+j)) over i < j, at limbs 1 to 4; x.l2 < 2^32,
	// so a < 2^289 and 2a still fits.
	h01, a1 := bits.Mul64(x.l0, x.l1)
	h02, l02 := bits.Mul64(x.l0, x.l2)
	h12, l12 := bits.Mul64(x.l1, x.l2)
	a2, c := bits.Add64(h01, l02, 0)
	a3, c := bits.Add64(h02, l12, c)
	a4 := h12 + c

	// t = 2a + Σ x_i²·2^(128i).
	h0, t0 := bits.Mul64(x.l0, x.l0)
	h1, l1 := bits.Mul64(x.l1, x.l1)
	t1, c := bits.Add64(a1<<1, h0, 0)
	t2, c := bits.Add64(a2<<1|a1>>63, l1, c)
	t3, c := bits.Add64(a3<<1|a2>>63, h1, c)
	t4 := a4<<1 | a3>>63 + x.l2*x.l2 + c

	h0, l0 := bits.Mul64(t2>>32|t3<<32, f.c)
	h1, l1 = bits.Mul64(t3>>32|t4<<32, f.c)
	u1, c := bits.Add64(h0, l1, 0)
	u2 := h1 + (t4>>32)*f.c + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2 = t2&low32 + u2 + c

	t0, c = bits.Add64(t0, (t2>>32)*f.c, 0)
	t1, c = bits.Add64(t1, 0, c)
	return f.Add(FoldElem{t0, t1, t2&low32 + c}, FoldElem{})
}
