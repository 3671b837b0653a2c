package shamir

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
)

// Prime-field arithmetic for the secret-sharing stack: one Montgomery
// field on fixed-capacity limbs, parameterised only by constants derived
// from the (DRBG-drawn) prime, so shamir, ssmpc and sssort run every
// share operation on stack values instead of math/big. Every prime a
// public entry point can derive is below 2^128 at the benchmarked and
// default parameter sets, so the hot multiply is an unrolled two-limb
// CIOS pass with R = 2^128; primes up to 256 bits take the four-limb
// loop with R = 2^256, which exists for correctness, not speed.
// FuzzFieldAgainstBig checks every operation against math/big.

// Elem is a field element in little-endian limbs, Montgomery form
// (x·R mod p), always fully reduced. The zero value is the field's zero.
// In a field below 2^128 the upper two limbs are always zero.
type Elem [4]uint64

// MaxFieldBits is the widest prime a Field carries. The widest any
// public entry point derives is 203 + ⌈log₂ m⌉ bits (h ≤ 62, d1, d2 ≤ 30,
// κ = 40), so there is no wider fallback engine.
const MaxFieldBits = 256

// Field carries the constants of one prime. It is immutable after
// NewField and safe for concurrent use.
type Field struct {
	p      *big.Int
	pl     Elem   // the prime's limbs (plain, not Montgomery)
	n0     uint64 // −p⁻¹ mod 2^64
	one    Elem   // R mod p, the Montgomery form of 1
	r2     Elem   // R² mod p; a Montgomery product with it enters Montgomery form
	narrow bool   // p < 2^128: R = 2^128 and the two-limb multiply

	// Rand draws exactly what crypto/rand.Int(rng, p) draws.
	randBytes int  // ⌈bitlen(p−1)/8⌉
	randMask  byte // keeps bitlen(p−1) mod 8 bits of the top byte

	// Square roots: one exponentiation when p ≡ 3 (mod 4) or p ≡ 5
	// (mod 8), Tonelli–Shanks on p−1 = s·2^e otherwise.
	sqrtExp [4]uint64 // (p+1)/4, (p−5)/8, or (s−1)/2
	tsE     int       // e, when p ≡ 1 (mod 8); 0 otherwise
	tsC     Elem      // n^s for a fixed non-residue n, when p ≡ 1 (mod 8)
}

var (
	fieldMu sync.Mutex
	fields  = map[string]*Field{}
)

// NewField returns the field of the odd prime p, at most MaxFieldBits
// wide. Fields are built — and p tested for primality — once per prime
// per process; later calls return the same *Field.
func NewField(p *big.Int) (*Field, error) {
	if p == nil {
		return nil, fmt.Errorf("shamir: field modulus missing")
	}
	if p.Sign() <= 0 || p.BitLen() > MaxFieldBits {
		return nil, fmt.Errorf("shamir: field modulus must be a positive prime of at most %d bits, got %d bits", MaxFieldBits, p.BitLen())
	}
	key := string(p.Bytes())
	fieldMu.Lock()
	defer fieldMu.Unlock()
	if f, ok := fields[key]; ok {
		return f, nil
	}
	if p.Bit(0) == 0 || !p.ProbablyPrime(16) {
		return nil, fmt.Errorf("shamir: field modulus is not an odd prime")
	}
	f := deriveField(new(big.Int).Set(p), p.BitLen() <= 128)
	fields[key] = f
	return f, nil
}

// deriveField computes the constants for an odd prime p of at most 256
// bits (at most 128 when narrow). The fuzz target builds both widths
// for one prime to set the two multiply bodies against each other.
func deriveField(p *big.Int, narrow bool) *Field {
	f := &Field{p: p, pl: limbsFromBig(p), narrow: narrow}
	// Newton iteration doubles the correct low bits of p⁻¹ each step;
	// p itself is right to 3 bits (p·p ≡ 1 mod 8 for odd p).
	inv := f.pl[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.pl[0]*inv
	}
	f.n0 = -inv
	rBits := uint(256)
	if narrow {
		rBits = 128
	}
	r := new(big.Int).Lsh(big.NewInt(1), rBits)
	f.one = limbsFromBig(new(big.Int).Mod(r, p))
	f.r2 = limbsFromBig(r.Mod(r.Mul(r, r), p))

	top := new(big.Int).Sub(p, big.NewInt(1)).BitLen()
	f.randBytes = (top + 7) / 8
	f.randMask = byte(0xff)
	if b := top % 8; b != 0 {
		f.randMask = byte(1<<uint(b) - 1)
	}

	e := new(big.Int)
	switch {
	case f.pl[0]&3 == 3:
		e.Rsh(e.Add(p, big.NewInt(1)), 2)
	case f.pl[0]&7 == 5:
		e.Rsh(e.Sub(p, big.NewInt(5)), 3)
	default:
		s := new(big.Int).Sub(p, big.NewInt(1))
		f.tsE = int(s.TrailingZeroBits())
		s.Rsh(s, uint(f.tsE))
		sl := limbsFromBig(s)
		// The smallest non-residue: n^((p−1)/2) = −1, i.e. (n^s)^(2^(e−1)) ≠ 1.
		for n := int64(2); ; n++ {
			c := f.Reduce(big.NewInt(n))
			f.exp(&c, &c, (*[4]uint64)(&sl))
			t := c
			for i := 1; i < f.tsE; i++ {
				f.Mul(&t, &t, &t)
			}
			if t != f.one {
				f.tsC = c
				break
			}
		}
		e.Rsh(s.Sub(s, big.NewInt(1)), 1)
	}
	f.sqrtExp = [4]uint64(limbsFromBig(e))
	return f
}

// P returns the field prime. The caller must not modify it.
func (f *Field) P() *big.Int { return f.p }

// One returns the Montgomery form of 1.
func (f *Field) One() Elem { return f.one }

// limbsFromBig packs 0 ≤ x < 2^256 into limbs. It goes through
// FillBytes rather than x.Bits() so the result does not depend on the
// platform's big.Word size.
func limbsFromBig(x *big.Int) Elem {
	var buf [32]byte
	x.FillBytes(buf[:])
	return limbsFromBytes(&buf)
}

func limbsFromBytes(buf *[32]byte) Elem {
	return Elem{
		binary.BigEndian.Uint64(buf[24:]),
		binary.BigEndian.Uint64(buf[16:]),
		binary.BigEndian.Uint64(buf[8:]),
		binary.BigEndian.Uint64(buf[0:]),
	}
}

// FromBig returns the Montgomery form of x and reports whether x was a
// reduced field element (0 ≤ x < p). This conversion is the engine's
// receive-boundary check: nothing that fails it becomes an Elem.
func (f *Field) FromBig(x *big.Int) (Elem, bool) {
	if x == nil || x.Sign() < 0 || x.BitLen() > MaxFieldBits {
		return Elem{}, false
	}
	l := limbsFromBig(x)
	if !l.less(&f.pl) {
		return Elem{}, false
	}
	f.Mul(&l, &l, &f.r2)
	return l, true
}

// Reduce returns the Montgomery form of x mod p for any integer x: the
// conversion for values this party supplies itself (secrets, public
// constants), which the API has always reduced silently.
func (f *Field) Reduce(x *big.Int) Elem {
	z, ok := f.FromBig(x)
	if !ok {
		z, _ = f.FromBig(new(big.Int).Mod(x, f.p))
	}
	return z
}

// ToBig leaves Montgomery form: a Montgomery product with the plain
// integer 1 divides by R.
func (f *Field) ToBig(x *Elem) *big.Int {
	l := f.plain(x)
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[24:], l[0])
	binary.BigEndian.PutUint64(buf[16:], l[1])
	binary.BigEndian.PutUint64(buf[8:], l[2])
	binary.BigEndian.PutUint64(buf[0:], l[3])
	return new(big.Int).SetBytes(buf[:])
}

// limbWords is the number of big.Words one 64-bit limb fills: one on
// 64-bit platforms, two where big.Word is 32 bits wide.
const limbWords = 64 / bits.UintSize

// ToBigs converts one message's worth of elements, with three
// allocations for the whole batch instead of two per element: the
// integers and their words are carved out of two slabs (big.Int.SetBits
// adopts a word slice as is). Every word slice is capped at its own
// length, so an integer a caller later grows reallocates instead of
// running into its neighbour.
func (f *Field) ToBigs(xs []Elem) []*big.Int {
	n := 4 * limbWords
	if f.narrow {
		n = 2 * limbWords
	}
	out := make([]*big.Int, len(xs))
	ints := make([]big.Int, len(xs))
	words := make([]big.Word, len(xs)*n)
	for i := range xs {
		l := f.plain(&xs[i])
		w := words[i*n : (i+1)*n : (i+1)*n]
		for k := 0; k < n/limbWords; k++ {
			if limbWords == 1 {
				w[k] = big.Word(l[k])
			} else {
				w[2*k], w[2*k+1] = big.Word(uint32(l[k])), big.Word(l[k]>>32)
			}
		}
		out[i] = ints[i].SetBits(w)
	}
	return out
}

// plain returns x out of Montgomery form, as integer limbs.
func (f *Field) plain(x *Elem) Elem {
	var z Elem
	f.Mul(&z, x, &Elem{1})
	return z
}

// Rand draws a uniform element, consuming exactly the bytes
// crypto/rand.Int(rng, p) consumes — ⌈bitlen(p−1)/8⌉ per draw, top byte
// masked, redrawn while ≥ p — so a seeded stream deals the shares it
// dealt when this was math/big.
func (f *Field) Rand(rng io.Reader) (Elem, error) {
	var buf [32]byte // escapes through rng.Read; Scheme.Rand brings its own
	return f.rand(rng, &buf)
}

// rand is Rand reading through the caller's zeroed scratch buffer, whose
// bytes above the draw width it leaves zero.
func (f *Field) rand(rng io.Reader, buf *[32]byte) (Elem, error) {
	draw := buf[32-f.randBytes:]
	for {
		if _, err := io.ReadFull(rng, draw); err != nil {
			return Elem{}, fmt.Errorf("shamir: sampling field element: %w", err)
		}
		draw[0] &= f.randMask
		l := limbsFromBytes(buf)
		if l.less(&f.pl) {
			f.Mul(&l, &l, &f.r2)
			return l, nil
		}
	}
}

// IsZero reports x == 0.
func (x *Elem) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// isOne reports x == 1 as an integer (not the Montgomery one).
func (x *Elem) isOne() bool { return x[0] == 1 && x[1]|x[2]|x[3] == 0 }

// less reports x < y as integers.
func (x *Elem) less(y *Elem) bool {
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

// Mul sets z = x·y/R mod p, the Montgomery product. z may alias x or y.
func (f *Field) Mul(z, x, y *Elem) {
	if f.narrow {
		f.mul2(z, x, y)
	} else {
		f.mul4(z, x, y)
	}
}

// mul2 is the multiply for p < 2^128: coarsely integrated operand
// scanning over two limbs, both rows unrolled, the accumulator in three
// scalars so it stays in registers, and the final subtraction chosen by
// a mask, not a branch (on field data it would mispredict half the
// time).
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

// mul4 is the multiply for 128 < bitlen(p) ≤ 256: the same CIOS pass as
// a loop over four limbs.
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
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	f.reduce(z, t0, t1, t2, t3, c)
}

// Sub sets z = x − y mod p, adding p back (under a mask) on a borrow.
func (f *Field) Sub(z, x, y *Elem) {
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

// neg sets z = −x mod p.
func (f *Field) neg(z, x *Elem) { f.Sub(z, &Elem{}, x) }

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

// Inv sets z to the inverse of x, both in Montgomery form, by the
// binary extended Euclidean algorithm: about two shift-and-subtract
// steps per modulus bit. The invariants are a·x ≡ u·R² and b·x ≡ v·R²
// (mod p), so the coefficient left beside u = 1 or v = 1 is R²/x, the
// Montgomery form of the inverse, whichever R the field uses. The
// inverse of zero is zero.
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
		if v.less(&u) {
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

// InvBatch inverts every element of xs in place with one Inv and three
// multiplications per element (Montgomery's trick). Zeros stay zero.
func (f *Field) InvBatch(xs []Elem) {
	// prefix[i] is the product of the non-zero elements before i.
	prefix := make([]Elem, len(xs))
	acc := f.one
	for i := range xs {
		prefix[i] = acc
		if !xs[i].IsZero() {
			f.Mul(&acc, &acc, &xs[i])
		}
	}
	f.Inv(&acc, &acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			continue
		}
		x := xs[i]
		f.Mul(&xs[i], &acc, &prefix[i])
		f.Mul(&acc, &acc, &x)
	}
}

// exp sets z = x^e for a plain integer exponent in little-endian limbs,
// by left-to-right square-and-multiply. z may alias x.
func (f *Field) exp(z, x *Elem, e *[4]uint64) {
	base, acc := *x, f.one
	started := false
	for i := 3; i >= 0; i-- {
		for bit := 63; bit >= 0; bit-- {
			if started {
				f.Mul(&acc, &acc, &acc)
			}
			if e[i]>>uint(bit)&1 != 0 {
				f.Mul(&acc, &acc, &base)
				started = true
			}
		}
	}
	*z = acc
}

// Sqrt sets z to the square root of x that is the smaller of the two as
// an integer, min(w, p−w), so every party picks the same one, and
// reports whether x is a square. z is untouched when it is not.
func (f *Field) Sqrt(z, x *Elem) bool {
	var w Elem
	switch {
	case f.pl[0]&3 == 3:
		f.exp(&w, x, &f.sqrtExp) // x^((p+1)/4)
	case f.pl[0]&7 == 5:
		// Atkin: b = (2x)^((p−5)/8), i = 2x·b², w = x·b·(i−1).
		var x2, b, i Elem
		f.Add(&x2, x, x)
		f.exp(&b, &x2, &f.sqrtExp)
		f.Mul(&i, &b, &b)
		f.Mul(&i, &i, &x2)
		f.Sub(&i, &i, &f.one)
		f.Mul(&w, x, &b)
		f.Mul(&w, &w, &i)
	default:
		if !f.tonelliShanks(&w, x) {
			return false
		}
	}
	var sq Elem
	f.Mul(&sq, &w, &w)
	if sq != *x {
		return false
	}
	var other Elem
	f.neg(&other, &w)
	if pw, po := f.plain(&w), f.plain(&other); po.less(&pw) {
		w = other
	}
	*z = w
	return true
}

// tonelliShanks finds a root of x when p ≡ 1 (mod 8), with p−1 = s·2^e
// and c = n^s for a non-residue n. It reports false when it can tell x
// is a non-residue; the caller squares the result to be sure.
func (f *Field) tonelliShanks(w, x *Elem) bool {
	var t, r, b Elem
	f.exp(&t, x, &f.sqrtExp) // x^((s−1)/2)
	f.Mul(&r, x, &t)         // x^((s+1)/2)
	f.Mul(&b, &r, &t)        // x^s
	g, e := f.tsC, f.tsE
	for b != f.one && !b.IsZero() {
		// The least m with b^(2^m) = 1; m = e means x is a non-residue.
		m, sq := 0, b
		for sq != f.one {
			f.Mul(&sq, &sq, &sq)
			if m++; m == e {
				return false
			}
		}
		gs := g
		for i := 0; i < e-m-1; i++ {
			f.Mul(&gs, &gs, &gs)
		}
		f.Mul(&g, &gs, &gs)
		f.Mul(&r, &r, &gs)
		f.Mul(&b, &b, &g)
		e = m
	}
	*w = r
	return true
}
