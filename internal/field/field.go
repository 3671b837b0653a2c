// Package field is the prime-field arithmetic under both halves of the
// system: the curve kernel of internal/group (secp160r1, P-224, P-256)
// and the secret-sharing stack (internal/shamir, ssmpc, sssort). It is
// one field on fixed-capacity limbs, elements held as x·R mod p,
// parameterised only by constants derived from the modulus, so every
// operation runs on stack values where math/big would pay a division
// plus several allocations per reduction.
//
// New reads the body table once, from the modulus: a width, and within
// it a shape, both read from the modulus's limbs. The width is 2 limbs
// with R = 2^128 at or below 128 bits, 3 limbs with R = 2^192 at or
// below 192, 4 limbs with R = 2^256 at or below 256; R follows the width
// because a Montgomery pass costs one row per limb of R. Two moduli
// take their own bodies:
//
//	width  modulus                        body      Mul  Sqr
//	2      any                            mul2      10   Mul
//	3      2^160 − c, 0 < c < 2^32        the fold  13   10
//	3      any other                      mul3      21   Mul
//	4      P-256's prime                  P256      16   10
//	4      any other                      mul4      36   Mul
//
// (word products per operation, each Montgomery row's m = t₀·n₀
// included). The fold (secp160r1) takes R = 1 and needs no Montgomery
// reduction, since 2^160 ≡ c folds the product's top half down.
// P-256's prime has n₀ = −p₀⁻¹ = 1, so a row's m is t₀ itself, and
// limbs whose products with m are shifts: its reduction rows pay no word
// product (p256.go). Every body is written
// products-first, the idiom of fiat-crypto's generated fields (Erbsen et
// al., IEEE S&P 2019; Go's own crypto/internal/fips140/nistec/fiat): a
// row issues its bits.Mul64s, then sums them in unbroken bits.Add64
// carry chains, and the final subtraction is chosen by a mask or a
// conditional move, not a branch. Add and Sub take the shaped body's
// own on the fold and on P-256, and the three-limb bodies elsewhere
// below 2^192. The two shaped bodies are written once each, on values
// of their width passed by value (fold.go, p256.go); Field.Fold and
// Field.P256 hand them to the curve kernel, whose point formulas for
// secp160r1 and P-256 call them without the switch.
// FuzzFieldAgainstBig holds every operation to math/big, every narrow
// body to the four-limb one of the same modulus, the fold to the
// three-limb Montgomery body and P-256's body to the four-limb one.
package field

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
)

// Elem is a field element in little-endian limbs, in the field's form
// x·R mod p (R = 2^(64·width) on the Montgomery bodies, P-256's
// among them, 1 on the fold), always fully reduced. The zero value is
// the field's zero. Limbs above the field's width are always zero.
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
	body  body   // the multiply and square of the body table
	fold  uint64 // c on the fold body (p = 2^160 − c), else 0

	// Square roots (sqrt.go), by p mod 8.
	sqrtExp [4]uint64 // (p+1)/4, (p−5)/8, or (s−1)/2 for p − 1 = s·2^e
	tsE     int       // e, when p ≡ 1 (mod 8); 0 otherwise
	tsC     Elem      // n^s for a non-residue n, when p ≡ 1 (mod 8)
}

// body names one row of the body table: the multiply, and the square,
// a Field runs.
type body uint8

const (
	mont2    body = iota // mul2; Sqr is Mul
	mont3                // mul3; Sqr is Mul
	mont4                // mul4; Sqr is Mul
	foldBody             // Fold.Mul and Fold.Sqr (fold.go), R = 1
	p256Body             // P256.Mul and P256.Sqr (p256.go)
)

// New returns the field of the odd modulus p, at most MaxBits wide, with
// its body read from the body table and its square-root constants. The
// field keeps its own copy of p.
func New(p *big.Int) (Field, error) {
	if p == nil || p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > MaxBits {
		return Field{}, errors.New("field: the modulus must be odd, positive and at most 256 bits")
	}
	f := withWidth(new(big.Int).Set(p), max(2, (p.BitLen()+63)/64))
	switch l := f.pl; {
	case l[3] == 0 && l[2] == 1<<32-1 && l[1] == ^uint64(0) && -l[0] < 1<<32:
		// p = 2^160 − c with c = 2^64 − p₀. The fold is a product x·y/R
		// with R = 1, so 1 is its own form and R² mod p is 1 too.
		f.body, f.fold = foldBody, -l[0]
		f.one, f.r2 = Elem{1}, Elem{1}
	case l == Elem{p256P0, p256P1, 0, p256P3}:
		f.body = p256Body // n₀ = 1: withWidth's constants stand
	}
	f.sqrtConsts()
	return f, nil
}

// withWidth derives the Montgomery constants of an odd modulus on the
// given number of limbs, which must hold it, and gives it the plain
// Montgomery body of that width. Tests build through it the four-limb
// field of a narrower modulus, to hold the narrow bodies against the
// wide one, the three-limb Montgomery field of a modulus New folds, to
// hold the fold against mul3, and P-256's four-limb Montgomery field, to
// hold its body against mul4.
func withWidth(p *big.Int, width int) Field {
	f := Field{p: p, pl: Limbs(p), width: width, body: mont2 + body(width-2)}
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

// Mul sets z = x·y/R mod p, with the body and R the body table gave the
// modulus: Fold.Mul (R = 1, 13 word products) for p = 2^160 − c with
// 0 < c < 2^32, P256.Mul (16) for P-256's prime, else the Montgomery
// body of the width, mul2 (10), mul3 (21) or mul4 (36). z may alias x
// or y.
func (f *Field) Mul(z, x, y *Elem) {
	switch f.body {
	case mont2:
		f.mul2(z, x, y)
	case foldBody:
		fd := Fold{f.fold}
		*z = fd.Mul(fd.Load(x), fd.Load(y)).Elem()
	case mont3:
		f.mul3(z, x, y)
	case p256Body:
		var pd P256
		*z = pd.Mul(pd.Load(x), pd.Load(y)).Elem()
	default:
		f.mul4(z, x, y)
	}
}

// Sqr sets z = x·x/R mod p, the result of Mul(z, x, x): Fold.Sqr (10 word
// products where Fold.Mul pays 13) on the fold, P256.Sqr (10 where
// P256.Mul pays 16) on P-256, and Mul itself on the Montgomery bodies of
// the plain widths. z may alias x.
func (f *Field) Sqr(z, x *Elem) {
	switch f.body {
	case foldBody:
		fd := Fold{f.fold}
		*z = fd.Sqr(fd.Load(x)).Elem()
	case p256Body:
		var pd P256
		*z = pd.Sqr(pd.Load(x)).Elem()
	default:
		f.Mul(z, x, x)
	}
}

// mul2 is Mul for p < 2^128: coarsely integrated operand scanning, a row
// that adds x·y[i] to the accumulator followed by one that cancels its
// low limb with m·p, m = t0·n0, and shifts down a limb. Each row's
// products come first and one carry chain assembles them (x·y[i] or m·p
// as w + 1 limbs), a second adds them in; both rows are unrolled, the
// accumulator stays in scalars, and the final subtraction is inline and
// chosen by a mask, not a branch (on field data it would mispredict half
// the time).
func (f *Field) mul2(z, x, y *Elem) {
	x0, x1 := x[0], x[1]
	p0, p1 := f.pl[0], f.pl[1]

	h0, t0 := bits.Mul64(x0, y[0])
	h1, l1 := bits.Mul64(x1, y[0])
	t1, c := bits.Add64(h0, l1, 0)
	t2 := h1 + c
	m := t0 * f.n0
	h0, l0 := bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	u1, c := bits.Add64(h0, l1, 0)
	u2 := h1 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, u1, c)
	t1, c = bits.Add64(t2, u2, c)
	t2 = c // below 2 between rows

	h0, l0 = bits.Mul64(x0, y[1])
	h1, l1 = bits.Mul64(x1, y[1])
	u1, c = bits.Add64(h0, l1, 0)
	u2 = h1 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, t3 := bits.Add64(t2, u2, c)
	m = t0 * f.n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	u1, c = bits.Add64(h0, l1, 0)
	u2 = h1 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, u1, c)
	t1, c = bits.Add64(t2, u2, c)
	t2 = t3 + c

	// (t2, t1, t0) is below 2p: subtract p unless that borrows.
	r0, b := bits.Sub64(t0, p0, 0)
	r1, b := bits.Sub64(t1, p1, b)
	_, b = bits.Sub64(t2, 0, b)
	keep := -b
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2], z[3] = 0, 0
}

// mul3 is Mul for p < 2^192: mul2's rows on three limbs, unrolled, and
// the final subtraction inline (the compiler does not inline reduce, and
// a call per multiply is a measurable share of it at this width).
func (f *Field) mul3(z, x, y *Elem) {
	x0, x1, x2 := x[0], x[1], x[2]
	p0, p1, p2 := f.pl[0], f.pl[1], f.pl[2]
	y0, y1, y2 := y[0], y[1], y[2]

	h0, t0 := bits.Mul64(x0, y0)
	h1, l1 := bits.Mul64(x1, y0)
	h2, l2 := bits.Mul64(x2, y0)
	t1, c := bits.Add64(h0, l1, 0)
	t2, c := bits.Add64(h1, l2, c)
	t3 := h2 + c
	m := t0 * f.n0
	h0, l0 := bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	u1, c := bits.Add64(h0, l1, 0)
	u2, c := bits.Add64(h1, l2, c)
	u3 := h2 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, u1, c)
	t1, c = bits.Add64(t2, u2, c)
	t2, c = bits.Add64(t3, u3, c)
	t3 = c // below 2 between rows

	h0, l0 = bits.Mul64(x0, y1)
	h1, l1 = bits.Mul64(x1, y1)
	h2, l2 = bits.Mul64(x2, y1)
	u1, c = bits.Add64(h0, l1, 0)
	u2, c = bits.Add64(h1, l2, c)
	u3 = h2 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3, t4 := bits.Add64(t3, u3, c)
	m = t0 * f.n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	u1, c = bits.Add64(h0, l1, 0)
	u2, c = bits.Add64(h1, l2, c)
	u3 = h2 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, u1, c)
	t1, c = bits.Add64(t2, u2, c)
	t2, c = bits.Add64(t3, u3, c)
	t3 = t4 + c

	h0, l0 = bits.Mul64(x0, y2)
	h1, l1 = bits.Mul64(x1, y2)
	h2, l2 = bits.Mul64(x2, y2)
	u1, c = bits.Add64(h0, l1, 0)
	u2, c = bits.Add64(h1, l2, c)
	u3 = h2 + c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3, t4 = bits.Add64(t3, u3, c)
	m = t0 * f.n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	u1, c = bits.Add64(h0, l1, 0)
	u2, c = bits.Add64(h1, l2, c)
	u3 = h2 + c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, u1, c)
	t1, c = bits.Add64(t2, u2, c)
	t2, c = bits.Add64(t3, u3, c)
	t3 = t4 + c

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

// mul4 is Mul for 192 < bitlen(p) ≤ 256: mul2's rows on four limbs, as a
// loop over the limbs of y.
func (f *Field) mul4(z, x, y *Elem) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	p0, p1, p2, p3 := f.pl[0], f.pl[1], f.pl[2], f.pl[3]
	var t0, t1, t2, t3, t4 uint64 // t4 is below 2 between rows
	for _, yi := range y {
		h0, l0 := bits.Mul64(x0, yi)
		h1, l1 := bits.Mul64(x1, yi)
		h2, l2 := bits.Mul64(x2, yi)
		h3, l3 := bits.Mul64(x3, yi)
		u1, c := bits.Add64(h0, l1, 0)
		u2, c := bits.Add64(h1, l2, c)
		u3, c := bits.Add64(h2, l3, c)
		u4 := h3 + c
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, u1, c)
		t2, c = bits.Add64(t2, u2, c)
		t3, c = bits.Add64(t3, u3, c)
		var t5 uint64
		t4, t5 = bits.Add64(t4, u4, c)

		m := t0 * f.n0
		h0, l0 = bits.Mul64(m, p0)
		h1, l1 = bits.Mul64(m, p1)
		h2, l2 = bits.Mul64(m, p2)
		h3, l3 = bits.Mul64(m, p3)
		u1, c = bits.Add64(h0, l1, 0)
		u2, c = bits.Add64(h1, l2, c)
		u3, c = bits.Add64(h2, l3, c)
		u4 = h3 + c
		_, c = bits.Add64(t0, l0, 0)
		t0, c = bits.Add64(t1, u1, c)
		t1, c = bits.Add64(t2, u2, c)
		t2, c = bits.Add64(t3, u3, c)
		t3, c = bits.Add64(t4, u4, c)
		t4 = t5 + c
	}
	f.reduce(z, t0, t1, t2, t3, t4)
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
	switch f.body {
	case foldBody:
		fd := Fold{f.fold}
		*z = fd.Add(fd.Load(x), fd.Load(y)).Elem()
		return
	case p256Body:
		var pd P256
		*z = pd.Add(pd.Load(x), pd.Load(y)).Elem()
		return
	}
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
	switch f.body {
	case foldBody:
		fd := Fold{f.fold}
		*z = fd.Sub(fd.Load(x), fd.Load(y)).Elem()
		return
	case p256Body:
		var pd P256
		*z = pd.Sub(pd.Load(x), pd.Load(y)).Elem()
		return
	}
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
