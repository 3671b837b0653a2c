// Package field is the prime-field arithmetic under both halves of the
// system: the curve kernel of internal/group (secp160r1, P-224, P-256)
// and the secret-sharing stack (internal/shamir, ssmpc, sssort). It is
// one field on fixed-capacity limbs, elements held as x·R mod p,
// parameterised only by constants derived from the modulus, so every
// operation runs on stack values where math/big would pay a division
// plus several allocations per reduction.
//
// The width table is read once, in New, from the modulus: 2 limbs with
// R = 2^128 at or below 128 bits, 3 limbs with R = 2^192 at or below 192,
// 4 limbs with R = 2^256 at or below 256. R follows the width because a
// Montgomery pass costs one row per limb of R: the 75-bit SS primes pay 8
// word products per multiply and P-256 32, where one four-limb body would
// charge all of them 32. New reads the modulus shape once too: a
// pseudo-Mersenne p = 2^160 − c with 0 < c < 2^32 (secp160r1) needs no
// Montgomery reduction, since 2^160 ≡ c folds the product's top half
// down, so it takes R = 1 and the fold body, 13 word products where the
// three-limb Montgomery pass pays 21. Add and Sub take the three-limb
// bodies below 2^192. FuzzFieldAgainstBig holds every operation to
// math/big, every narrow body to the four-limb one of the same modulus
// and the fold to the three-limb Montgomery body.
package field

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
)

// Elem is a field element in little-endian limbs, in the field's form
// x·R mod p (R = 2^(64·width) on the Montgomery bodies, 1 on the fold),
// always fully reduced. The zero value is the field's zero. Limbs above
// the field's width are always zero.
type Elem [4]uint64

// MaxBits is the widest modulus a Field carries.
const MaxBits = 256

// Field carries the constants of one odd modulus. It is immutable after
// New and safe for concurrent use.
type Field struct {
	p     *big.Int
	pl    Elem   // the modulus's limbs (plain, not in the field's form)
	n0    uint64 // −p⁻¹ mod 2^64
	one   Elem   // R mod p, the field's form of 1
	r2    Elem   // R² mod p; a product (x·y/R) with it enters the field's form
	width int    // limbs per element, 2, 3 or 4
	fold  uint64 // c if p = 2^160 − c, 0 < c < 2^32: Mul folds, R = 1; else 0, R = 2^(64·width)

	// Square roots (sqrt.go), by p mod 8.
	sqrtExp [4]uint64 // (p+1)/4, (p−5)/8, or (s−1)/2 for p − 1 = s·2^e
	tsE     int       // e, when p ≡ 1 (mod 8); 0 otherwise
	tsC     Elem      // n^s for a non-residue n, when p ≡ 1 (mod 8)
}

// New returns the field of the odd modulus p, at most MaxBits wide, with
// its width read from the width table and, for p = 2^160 − c with
// 0 < c < 2^32, the fold body, and its square-root constants. The field
// keeps its own copy of p.
func New(p *big.Int) (Field, error) {
	if p == nil || p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > MaxBits {
		return Field{}, errors.New("field: the modulus must be odd, positive and at most 256 bits")
	}
	f := withWidth(new(big.Int).Set(p), max(2, (p.BitLen()+63)/64))
	if c := new(big.Int).Lsh(big.NewInt(1), 160); c.Sub(c, p).Sign() > 0 && c.BitLen() <= 32 {
		// The fold is a product x·y/R with R = 1, so 1 is its own form
		// and R² mod p is 1 too.
		f.fold = c.Uint64()
		f.one, f.r2 = Elem{1}, Elem{1}
	}
	f.sqrtConsts()
	return f, nil
}

// withWidth derives the Montgomery constants of an odd modulus on the
// given number of limbs, which must hold it. Tests build through it the
// four-limb field of a narrower modulus, to hold the narrow bodies
// against the wide one, and the three-limb Montgomery field of a modulus
// New folds, to hold the fold against mul3.
func withWidth(p *big.Int, width int) Field {
	f := Field{p: p, pl: Limbs(p), width: width}
	// Newton iteration doubles the correct low bits of p⁻¹ each step;
	// p itself is right to 3 bits (p·p ≡ 1 mod 8 for odd p).
	inv := f.pl[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.pl[0]*inv
	}
	f.n0 = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*width))
	f.one = Limbs(new(big.Int).Mod(r, p))
	f.r2 = Limbs(r.Mod(r.Mul(r, r), p))
	return f
}

// P returns the modulus. The caller must not modify it.
func (f *Field) P() *big.Int { return f.p }

// One returns the field's form of 1, R mod p.
func (f *Field) One() Elem { return f.one }

// Width returns the number of limbs the width table gave the modulus.
func (f *Field) Width() int { return f.width }

// Limbs packs 0 ≤ |x| < 2^256 into plain little-endian limbs (the sign is
// dropped). It goes through FillBytes rather than x.Bits() so the result
// does not depend on the platform's big.Word size.
func Limbs(x *big.Int) [4]uint64 {
	var buf [32]byte
	x.FillBytes(buf[:])
	return fromBytes(&buf)
}

func fromBytes(buf *[32]byte) [4]uint64 {
	return [4]uint64{
		binary.BigEndian.Uint64(buf[24:]),
		binary.BigEndian.Uint64(buf[16:]),
		binary.BigEndian.Uint64(buf[8:]),
		binary.BigEndian.Uint64(buf[0:]),
	}
}

// FromBytes returns the field's form of the big-endian integer in buf
// and reports whether it was a reduced field element (below p).
func (f *Field) FromBytes(buf *[32]byte) (Elem, bool) {
	l := Elem(fromBytes(buf))
	if !l.Less(&f.pl) {
		return Elem{}, false
	}
	f.Mul(&l, &l, &f.r2)
	return l, true
}

// FromBig returns the field's form of x and reports whether x was a
// reduced field element (0 ≤ x < p). This conversion is the receive
// check: a peer's value that fails it never becomes an Elem.
func (f *Field) FromBig(x *big.Int) (Elem, bool) {
	if x == nil || x.Sign() < 0 || x.BitLen() > MaxBits {
		return Elem{}, false
	}
	var buf [32]byte
	x.FillBytes(buf[:])
	return f.FromBytes(&buf)
}

// Reduce returns the field's form of x mod p for any integer x: the
// conversion for values a party supplies itself (secrets, public
// constants) and for curve coordinates a peer sent unreduced, which the
// callers have always reduced silently.
func (f *Field) Reduce(x *big.Int) Elem {
	z, ok := f.FromBig(x)
	if !ok {
		z, _ = f.FromBig(new(big.Int).Mod(x, f.p))
	}
	return z
}

// Plain returns x out of the field's form, as integer limbs: a product
// x·y/R with the plain integer 1 divides by R.
func (f *Field) Plain(x *Elem) Elem {
	var z Elem
	f.Mul(&z, x, &Elem{1})
	return z
}

// FillBytes writes x out of the field's form into buf as a big-endian
// integer, zero-padded on the left: the inverse of FromBytes. buf must
// hold p, at least ⌈bitlen(p)/8⌉ and at most 32 bytes.
func (f *Field) FillBytes(buf []byte, x *Elem) {
	l := f.Plain(x)
	for i, k := len(buf)-1, 0; i >= 0; i, k = i-1, k+1 {
		buf[i] = byte(l[k/8] >> (8 * (k % 8)))
	}
}

// ToBig returns x out of the field's form as an integer.
func (f *Field) ToBig(x *Elem) *big.Int {
	var buf [32]byte
	f.FillBytes(buf[:], x)
	return new(big.Int).SetBytes(buf[:])
}

// IsZero reports x == 0.
func (x *Elem) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// isOne reports x == 1 as an integer (not the field's one).
func (x *Elem) isOne() bool { return x[0] == 1 && x[1]|x[2]|x[3] == 0 }

// Less reports x < y as integers.
func (x *Elem) Less(y *Elem) bool {
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

// Mul sets z = x·y/R mod p, with the R of the field's body: the fold for
// p = 2^160 − c (R = 1), else the Montgomery body of the field's width.
// z may alias x or y.
func (f *Field) Mul(z, x, y *Elem) {
	switch {
	case f.width == 2:
		f.mul2(z, x, y)
	case f.fold != 0:
		f.mulFold(z, x, y)
	case f.width == 3:
		f.mul3(z, x, y)
	default:
		f.mul4(z, x, y)
	}
}

// mulFold is Mul for p = 2^160 − c with 0 < c < 2^32 (secp160r1: c =
// 2^31 + 1), where R = 1 and 2^160 ≡ c (mod p). The 320-bit product
// t = H·2^160 + L folds to s = L + H·c < 2^160·(c+1) ≤ 2^192, which folds
// once more to below 2^160 + 2^64 < 2p, and one masked subtraction
// finishes: 9 + 3 + 1 word products where mul3 pays 21.
func (f *Field) mulFold(z, x, y *Elem) {
	x0, x1, x2 := x[0], x[1], x[2]
	y0, y1, y2 := y[0], y[1], y[2]
	c := f.fold
	const low32 = 1<<32 - 1

	// t = x·y in five limbs; x, y < 2^160, so the sixth is zero.
	h, t0 := bits.Mul64(x0, y0)
	h, t1 := madd(x1, y0, h, 0)
	t3, t2 := madd(x2, y0, h, 0)
	h, t1 = madd(x0, y1, t1, 0)
	h, t2 = madd(x1, y1, t2, h)
	t4, t3 := madd(x2, y1, t3, h)
	h, t2 = madd(x0, y2, t2, 0)
	h, t3 = madd(x1, y2, t3, h)
	_, t4 = madd(x2, y2, t4, h)

	// s = L + H·c, H = t >> 160 on three limbs, the top one below 2^32.
	h, s0 := madd(t2>>32|t3<<32, c, t0, 0)
	h, s1 := madd(t3>>32|t4<<32, c, t1, h)
	s2 := (t4>>32)*c + t2&low32 + h

	// Fold s >> 160 < 2^32 once more: its product with c is one word.
	var carry uint64
	s0, carry = bits.Add64(s0, (s2>>32)*c, 0)
	s1, carry = bits.Add64(s1, 0, carry)
	s2 = s2&low32 + carry

	// (s2, s1, s0) is below 2p: subtract p unless that borrows.
	r0, b := bits.Sub64(s0, f.pl[0], 0)
	r1, b := bits.Sub64(s1, f.pl[1], b)
	r2, b := bits.Sub64(s2, f.pl[2], b)
	keep := -b
	z[0] = r0 ^ (r0^s0)&keep
	z[1] = r1 ^ (r1^s1)&keep
	z[2] = r2 ^ (r2^s2)&keep
	z[3] = 0
}

// mul2 is Mul for p < 2^128: coarsely integrated operand scanning, one
// multiply-accumulate row of x·y[i] followed by one row that cancels the
// low limb with a multiple of p and shifts down a limb, both rows
// unrolled, the accumulator in three scalars so it stays in registers,
// and the final subtraction inline and chosen by a mask, not a branch (on
// field data it would mispredict half the time).
func (f *Field) mul2(z, x, y *Elem) {
	x0, x1 := x[0], x[1]
	p0, p1 := f.pl[0], f.pl[1]

	c, t0 := bits.Mul64(x0, y[0])
	t2, t1 := madd(x1, y[0], c, 0)
	m := t0 * f.n0
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	t1, t2 = bits.Add64(t2, c, 0) // t2 is now the carry: below 2

	c, t0 = madd(x0, y[1], t0, 0)
	c, t1 = madd(x1, y[1], t1, c)
	t2, c2 := bits.Add64(t2, c, 0)
	m = t0 * f.n0
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	t1, c = bits.Add64(t2, c, 0)
	t2 = c2 + c

	// (t2, t1, t0) is below 2p: subtract p unless that borrows.
	r0, b := bits.Sub64(t0, p0, 0)
	r1, b := bits.Sub64(t1, p1, b)
	_, b = bits.Sub64(t2, 0, b)
	keep := -b
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2], z[3] = 0, 0
}

// mul3 is Mul for p < 2^192: the three rows unrolled, the accumulator in
// four scalars, and the final subtraction inline (the compiler does not
// inline reduce, and a call per multiply is a measurable share of it at
// this width).
func (f *Field) mul3(z, x, y *Elem) {
	x0, x1, x2 := x[0], x[1], x[2]
	p0, p1, p2 := f.pl[0], f.pl[1], f.pl[2]
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

// mul4 is Mul for 192 < bitlen(p) ≤ 256: the same pass as a loop over
// four limbs.
func (f *Field) mul4(z, x, y *Elem) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	p0, p1, p2, p3 := f.pl[0], f.pl[1], f.pl[2], f.pl[3]
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

// reduce sets z to the 257-bit value (top, t3, …, t0) minus p if that
// value is at least p; the value must be below 2p.
func (f *Field) reduce(z *Elem, t0, t1, t2, t3, top uint64) {
	r0, b := bits.Sub64(t0, f.pl[0], 0)
	r1, b := bits.Sub64(t1, f.pl[1], b)
	r2, b := bits.Sub64(t2, f.pl[2], b)
	r3, b := bits.Sub64(t3, f.pl[3], b)
	_, b = bits.Sub64(top, 0, b)
	keep := -b // all ones when the subtraction borrowed: the value was below p
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = r3 ^ (r3^t3)&keep
}

// Add sets z = x + y mod p.
func (f *Field) Add(z, x, y *Elem) {
	if f.width < 4 {
		t0, c := bits.Add64(x[0], y[0], 0)
		t1, c := bits.Add64(x[1], y[1], c)
		t2, c := bits.Add64(x[2], y[2], c)
		r0, b := bits.Sub64(t0, f.pl[0], 0)
		r1, b := bits.Sub64(t1, f.pl[1], b)
		r2, b := bits.Sub64(t2, f.pl[2], b)
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

// Sub sets z = x − y mod p, adding p back (under a mask) on a borrow.
func (f *Field) Sub(z, x, y *Elem) {
	if f.width < 4 {
		t0, b := bits.Sub64(x[0], y[0], 0)
		t1, b := bits.Sub64(x[1], y[1], b)
		t2, b := bits.Sub64(x[2], y[2], b)
		wrap := -b
		var c uint64
		z[0], c = bits.Add64(t0, f.pl[0]&wrap, 0)
		z[1], c = bits.Add64(t1, f.pl[1]&wrap, c)
		z[2], _ = bits.Add64(t2, f.pl[2]&wrap, c)
		z[3] = 0
		return
	}
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	wrap := -b
	var c uint64
	z[0], c = bits.Add64(t0, f.pl[0]&wrap, 0)
	z[1], c = bits.Add64(t1, f.pl[1]&wrap, c)
	z[2], c = bits.Add64(t2, f.pl[2]&wrap, c)
	z[3], _ = bits.Add64(t3, f.pl[3]&wrap, c)
}

// Neg sets z = −x mod p.
func (f *Field) Neg(z, x *Elem) { f.Sub(z, &Elem{}, x) }

// halve sets x = x/2 mod p: odd values first gain p (making them even
// without changing the residue), and the carry of that addition is the
// bit shifted in at the top.
func (f *Field) halve(x *Elem) {
	var c uint64
	if x[0]&1 != 0 {
		x[0], c = bits.Add64(x[0], f.pl[0], 0)
		x[1], c = bits.Add64(x[1], f.pl[1], c)
		x[2], c = bits.Add64(x[2], f.pl[2], c)
		x[3], c = bits.Add64(x[3], f.pl[3], c)
	}
	x.shr1(c)
}

// shr1 shifts x right one bit, shifting in top.
func (x *Elem) shr1(top uint64) {
	x[0] = x[0]>>1 | x[1]<<63
	x[1] = x[1]>>1 | x[2]<<63
	x[2] = x[2]>>1 | x[3]<<63
	x[3] = x[3]>>1 | top<<63
}

// rawSub sets x = x − y as integers; the caller guarantees x ≥ y.
func (x *Elem) rawSub(y *Elem) {
	var b uint64
	x[0], b = bits.Sub64(x[0], y[0], 0)
	x[1], b = bits.Sub64(x[1], y[1], b)
	x[2], b = bits.Sub64(x[2], y[2], b)
	x[3], _ = bits.Sub64(x[3], y[3], b)
}

// Inv sets z to the inverse of x, both in the field's form, by the binary
// extended Euclidean algorithm: about two shift-and-subtract steps per
// modulus bit, a small fraction of the ~1.2 multiplications per bit a
// Fermat ladder costs. The invariants are a·x ≡ u·R² and b·x ≡ v·R²
// (mod p), so the coefficient left beside u = 1 or v = 1 is R²/x, the
// field's form of the inverse, whichever R the body gives (R = 1 on the
// fold). The inverse of zero is zero.
func (f *Field) Inv(z, x *Elem) {
	if x.IsZero() {
		*z = Elem{}
		return
	}
	u, v := *x, f.pl
	a, b := f.r2, Elem{}
	for !u.isOne() && !v.isOne() {
		for u[0]&1 == 0 {
			u.shr1(0)
			f.halve(&a)
		}
		for v[0]&1 == 0 {
			v.shr1(0)
			f.halve(&b)
		}
		if v.Less(&u) {
			u.rawSub(&v)
			f.Sub(&a, &a, &b)
		} else {
			v.rawSub(&u)
			f.Sub(&b, &b, &a)
		}
	}
	if u.isOne() {
		*z = a
	} else {
		*z = b
	}
}
