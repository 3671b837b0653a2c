package group

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// Prime-field arithmetic for the curve kernel (kernel.go): one
// Montgomery field, parameterised only by constants derived from the
// modulus, so secp160r1, P-224 and P-256 share one element type and
// every line outside the multiply, add and subtract. A multiplication
// is a fixed CIOS pass over stack values, where math/big would pay a
// division plus several allocations per reduction. A modulus
// below 2^192 (secp160r1) takes unrolled three-limb bodies with
// R = 2^192, 18 word products per multiply; a wider one (P-224,
// P-256) the four-limb loop with R = 2^256, 32. FuzzFieldAgainstBig
// checks every operation against math/big, and the two bodies against
// each other, for each modulus.

// fe is a field element in little-endian limbs, always fully reduced
// (< p). The kernel holds every fe in Montgomery form, x·R mod p; in a
// narrow field the top limb is always zero.
type fe [4]uint64

// montField carries the constants of one modulus.
type montField struct {
	p      fe     // the modulus, odd, at most 256 bits
	n0     uint64 // −p⁻¹ mod 2^64
	one    fe     // R mod p, the Montgomery form of 1
	r2     fe     // R² mod p; a Montgomery product with it enters Montgomery form
	narrow bool   // p < 2^192: R = 2^192 and the three-limb bodies
}

// narrowBits is the widest modulus the three-limb bodies take.
const narrowBits = 192

// newMontField derives the constants for an odd modulus of at most 256
// bits, choosing the width from the modulus; ok is false for any other
// p.
func newMontField(p *big.Int) (f montField, ok bool) {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > 256 {
		return f, false
	}
	return deriveMontField(p, p.BitLen() <= narrowBits), true
}

// deriveMontField computes the constants of an odd modulus of at most
// 256 bits (at most narrowBits when narrow). Tests build the wide field
// of a narrow modulus through it to hold the two bodies against each
// other.
func deriveMontField(p *big.Int, narrow bool) montField {
	f := montField{p: limbsFromBig(p), narrow: narrow}
	// Newton iteration doubles the correct low bits of p⁻¹ each step;
	// p itself is right to 3 bits (p·p ≡ 1 mod 8 for odd p).
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.n0 = -inv
	rBits := uint(256)
	if narrow {
		rBits = narrowBits
	}
	r := new(big.Int).Lsh(big.NewInt(1), rBits)
	f.one = limbsFromBig(new(big.Int).Mod(r, p))
	f.r2 = limbsFromBig(r.Mod(r.Mul(r, r), p))
	return f
}

// limbsFromBig packs 0 ≤ x < 2^256 into limbs. It goes through
// FillBytes rather than x.Bits() so the result does not depend on the
// platform's big.Word size.
func limbsFromBig(x *big.Int) fe {
	var buf [32]byte
	x.FillBytes(buf[:])
	return fe{
		binary.BigEndian.Uint64(buf[24:]),
		binary.BigEndian.Uint64(buf[16:]),
		binary.BigEndian.Uint64(buf[8:]),
		binary.BigEndian.Uint64(buf[0:]),
	}
}

// limbsToBig is the inverse of limbsFromBig.
func limbsToBig(x *fe) *big.Int {
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[24:], x[0])
	binary.BigEndian.PutUint64(buf[16:], x[1])
	binary.BigEndian.PutUint64(buf[8:], x[2])
	binary.BigEndian.PutUint64(buf[0:], x[3])
	return new(big.Int).SetBytes(buf[:])
}

// fromBig sets z to the Montgomery form of x and reports whether x was
// a reduced field element (0 ≤ x < p); z is untouched otherwise.
func (f *montField) fromBig(z *fe, x *big.Int) bool {
	if x.Sign() < 0 || x.BitLen() > 256 {
		return false
	}
	l := limbsFromBig(x)
	if !l.less(&f.p) {
		return false
	}
	f.mul(z, &l, &f.r2)
	return true
}

// toBig leaves Montgomery form: a Montgomery product with the plain
// integer 1 divides by R.
func (f *montField) toBig(x *fe) *big.Int {
	var z fe
	f.mul(&z, x, &fe{1})
	return limbsToBig(&z)
}

func (x *fe) isZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// isOne reports x == 1 as an integer (not the Montgomery one).
func (x *fe) isOne() bool { return x[0] == 1 && x[1]|x[2]|x[3] == 0 }

// less reports x < y as integers.
func (x *fe) less(y *fe) bool {
	_, b := bits.Sub64(x[0], y[0], 0)
	_, b = bits.Sub64(x[1], y[1], b)
	_, b = bits.Sub64(x[2], y[2], b)
	_, b = bits.Sub64(x[3], y[3], b)
	return b != 0
}

// madd returns a·b + c + d as (hi, lo); the sum cannot overflow 128
// bits.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return hi, lo
}

// reduce sets z to the 257-bit value (top, t3, …, t0) minus p if that
// value is at least p; the value must be below 2p. The choice is a
// mask, not a branch: on field data it would mispredict half the time.
func (f *montField) reduce(z *fe, t0, t1, t2, t3, top uint64) {
	r0, b := bits.Sub64(t0, f.p[0], 0)
	r1, b := bits.Sub64(t1, f.p[1], b)
	r2, b := bits.Sub64(t2, f.p[2], b)
	r3, b := bits.Sub64(t3, f.p[3], b)
	_, b = bits.Sub64(top, 0, b)
	keep := -b // all ones when the subtraction borrowed: the value was below p
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = r3 ^ (r3^t3)&keep
}

// mul sets z = x·y/R mod p: coarsely integrated operand scanning, one
// multiply-accumulate row of x·y[i] followed by one row that cancels
// the low limb with a multiple of p and shifts down a limb. The
// accumulator is scalars, not an array, so that it stays in registers.
// z may alias x or y.
func (f *montField) mul(z, x, y *fe) {
	if f.narrow {
		f.mul3(z, x, y)
		return
	}
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	p0, p1, p2, p3 := f.p[0], f.p[1], f.p[2], f.p[3]
	var t0, t1, t2, t3, top uint64 // top is below 2 between rows
	for _, yi := range y {
		var c, c2 uint64
		c, t0 = madd(x0, yi, t0, 0)
		c, t1 = madd(x1, yi, t1, c)
		c, t2 = madd(x2, yi, t2, c)
		c, t3 = madd(x3, yi, t3, c)
		top, c2 = bits.Add64(top, c, 0)
		m := t0 * f.n0
		c, _ = madd(m, p0, t0, 0)
		c, t0 = madd(m, p1, t1, c)
		c, t1 = madd(m, p2, t2, c)
		c, t2 = madd(m, p3, t3, c)
		t3, c = bits.Add64(top, c, 0)
		top = c2 + c
	}
	f.reduce(z, t0, t1, t2, t3, top)
}

// mul3 is mul for p < 2^192: the three rows unrolled, the accumulator
// in four scalars, and the final subtraction inline (the compiler does
// not inline reduce, and a call per multiply is a measurable share of
// it at this width).
func (f *montField) mul3(z, x, y *fe) {
	x0, x1, x2 := x[0], x[1], x[2]
	p0, p1, p2 := f.p[0], f.p[1], f.p[2]
	y0, y1, y2 := y[0], y[1], y[2]

	c, t0 := bits.Mul64(x0, y0)
	c, t1 := madd(x1, y0, c, 0)
	t3, t2 := madd(x2, y0, c, 0)
	m := t0 * f.n0
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	t2, t3 = bits.Add64(t3, c, 0) // t3 is now a carry: below 2

	var c2 uint64
	c, t0 = madd(x0, y1, t0, 0)
	c, t1 = madd(x1, y1, t1, c)
	c, t2 = madd(x2, y1, t2, c)
	t3, c2 = bits.Add64(t3, c, 0)
	m = t0 * f.n0
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	t2, c = bits.Add64(t3, c, 0)
	t3 = c2 + c

	c, t0 = madd(x0, y2, t0, 0)
	c, t1 = madd(x1, y2, t1, c)
	c, t2 = madd(x2, y2, t2, c)
	t3, c2 = bits.Add64(t3, c, 0)
	m = t0 * f.n0
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	t2, c = bits.Add64(t3, c, 0)
	t3 = c2 + c

	// (t3, t2, t1, t0) is below 2p: subtract p unless that borrows.
	r0, b := bits.Sub64(t0, p0, 0)
	r1, b := bits.Sub64(t1, p1, b)
	r2, b := bits.Sub64(t2, p2, b)
	_, b = bits.Sub64(t3, 0, b)
	keep := -b
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = 0
}

// sqr sets z = x²/R mod p.
func (f *montField) sqr(z, x *fe) { f.mul(z, x, x) }

// add sets z = x + y mod p.
func (f *montField) add(z, x, y *fe) {
	if f.narrow {
		t0, c := bits.Add64(x[0], y[0], 0)
		t1, c := bits.Add64(x[1], y[1], c)
		t2, c := bits.Add64(x[2], y[2], c)
		r0, b := bits.Sub64(t0, f.p[0], 0)
		r1, b := bits.Sub64(t1, f.p[1], b)
		r2, b := bits.Sub64(t2, f.p[2], b)
		_, b = bits.Sub64(c, 0, b)
		keep := -b
		z[0] = r0 ^ (r0^t0)&keep
		z[1] = r1 ^ (r1^t1)&keep
		z[2] = r2 ^ (r2^t2)&keep
		z[3] = 0
		return
	}
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	f.reduce(z, t0, t1, t2, t3, c)
}

// sub sets z = x − y mod p, adding p back (under a mask) on a borrow.
func (f *montField) sub(z, x, y *fe) {
	if f.narrow {
		t0, b := bits.Sub64(x[0], y[0], 0)
		t1, b := bits.Sub64(x[1], y[1], b)
		t2, b := bits.Sub64(x[2], y[2], b)
		wrap := -b
		var c uint64
		z[0], c = bits.Add64(t0, f.p[0]&wrap, 0)
		z[1], c = bits.Add64(t1, f.p[1]&wrap, c)
		z[2], _ = bits.Add64(t2, f.p[2]&wrap, c)
		z[3] = 0
		return
	}
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	wrap := -b
	var c uint64
	z[0], c = bits.Add64(t0, f.p[0]&wrap, 0)
	z[1], c = bits.Add64(t1, f.p[1]&wrap, c)
	z[2], c = bits.Add64(t2, f.p[2]&wrap, c)
	z[3], _ = bits.Add64(t3, f.p[3]&wrap, c)
}

// neg sets z = −x mod p.
func (f *montField) neg(z, x *fe) { f.sub(z, &fe{}, x) }

// halve sets x = x/2 mod p: odd values first gain p (making them even
// without changing the residue), and the carry of that addition is the
// bit shifted in at the top.
func (f *montField) halve(x *fe) {
	var c uint64
	if x[0]&1 != 0 {
		x[0], c = bits.Add64(x[0], f.p[0], 0)
		x[1], c = bits.Add64(x[1], f.p[1], c)
		x[2], c = bits.Add64(x[2], f.p[2], c)
		x[3], c = bits.Add64(x[3], f.p[3], c)
	}
	x.shr1(c)
}

// shr1 shifts x right one bit, shifting in top.
func (x *fe) shr1(top uint64) {
	x[0] = x[0]>>1 | x[1]<<63
	x[1] = x[1]>>1 | x[2]<<63
	x[2] = x[2]>>1 | x[3]<<63
	x[3] = x[3]>>1 | top<<63
}

// inv sets z to the inverse of x, both in Montgomery form, by the
// binary extended Euclidean algorithm: about two shift-and-subtract
// steps per modulus bit, a small fraction of the ~1.2 multiplications
// per bit a Fermat ladder costs, and this runs once per
// Jacobian→affine projection. The invariants are a·x ≡ u·R² and
// b·x ≡ v·R² (mod p), so the coefficient left beside u = 1 or v = 1 is
// R²/x, the Montgomery form of the inverse. The inverse of zero is
// zero.
func (f *montField) inv(z, x *fe) {
	if x.isZero() {
		*z = fe{}
		return
	}
	u, v := *x, f.p
	a, b := f.r2, fe{}
	for !u.isOne() && !v.isOne() {
		for u[0]&1 == 0 {
			u.shr1(0)
			f.halve(&a)
		}
		for v[0]&1 == 0 {
			v.shr1(0)
			f.halve(&b)
		}
		if v.less(&u) {
			u.rawSub(&v)
			f.sub(&a, &a, &b)
		} else {
			v.rawSub(&u)
			f.sub(&b, &b, &a)
		}
	}
	if u.isOne() {
		*z = a
	} else {
		*z = b
	}
}

// rawSub sets x = x − y as integers; the caller guarantees x ≥ y.
func (x *fe) rawSub(y *fe) {
	var b uint64
	x[0], b = bits.Sub64(x[0], y[0], 0)
	x[1], b = bits.Sub64(x[1], y[1], b)
	x[2], b = bits.Sub64(x[2], y[2], b)
	x[3], _ = bits.Sub64(x[3], y[3], b)
}
