package shamir

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"

	"groupranking/internal/field"
)

// The secret-sharing stack's prime field: the shared limb field
// (internal/field) of a DRBG-drawn prime, plus what only this stack
// needs — a per-prime memo with the primality test, uniform draws that
// consume exactly crypto/rand.Int's bytes, square roots, batch inversion
// and the slab conversion to the wire's []*big.Int. Every prime a public
// entry point derives at the benchmarked and default parameter sets is
// below 2^128, so shares run on the two-limb body.

// Field is the field of one prime. It is immutable after NewField and
// safe for concurrent use.
type Field struct {
	field.Field

	// Rand draws exactly what crypto/rand.Int(rng, p) draws.
	randBytes int  // ⌈bitlen(p−1)/8⌉
	randMask  byte // keeps bitlen(p−1) mod 8 bits of the top byte

	// Square roots: one exponentiation when p ≡ 3 (mod 4) or p ≡ 5
	// (mod 8), Tonelli–Shanks on p−1 = s·2^e otherwise.
	pMod8   uint64     // p mod 8, which picks the method
	sqrtExp [4]uint64  // (p+1)/4, (p−5)/8, or (s−1)/2
	tsE     int        // e, when p ≡ 1 (mod 8); 0 otherwise
	tsC     field.Elem // n^s for a fixed non-residue n, when p ≡ 1 (mod 8)
}

var (
	fieldMu sync.Mutex
	fields  = map[string]*Field{}
)

// NewField returns the field of the odd prime p, at most field.MaxBits
// wide. The widest any public entry point derives is 203 + ⌈log₂ m⌉ bits
// (h ≤ 62, d1, d2 ≤ 30, κ = 40), so there is no wider fallback engine.
// Fields are built — and p tested for primality — once per prime per
// process; later calls return the same *Field.
func NewField(p *big.Int) (*Field, error) {
	if p == nil {
		return nil, fmt.Errorf("shamir: field modulus missing")
	}
	if p.Sign() <= 0 || p.BitLen() > field.MaxBits {
		return nil, fmt.Errorf("shamir: field modulus must be a positive prime of at most %d bits, got %d bits", field.MaxBits, p.BitLen())
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
	lf, err := field.New(p)
	if err != nil {
		return nil, fmt.Errorf("shamir: %w", err)
	}
	f := &Field{Field: lf, pMod8: field.Limbs(p)[0] & 7}

	top := new(big.Int).Sub(p, big.NewInt(1)).BitLen()
	f.randBytes = (top + 7) / 8
	f.randMask = byte(0xff)
	if b := top % 8; b != 0 {
		f.randMask = byte(1<<uint(b) - 1)
	}

	e := new(big.Int)
	switch {
	case f.pMod8&3 == 3:
		e.Rsh(e.Add(p, big.NewInt(1)), 2)
	case f.pMod8 == 5:
		e.Rsh(e.Sub(p, big.NewInt(5)), 3)
	default:
		s := new(big.Int).Sub(p, big.NewInt(1))
		f.tsE = int(s.TrailingZeroBits())
		s.Rsh(s, uint(f.tsE))
		sl := field.Limbs(s)
		// The smallest non-residue: n^((p−1)/2) = −1, i.e. (n^s)^(2^(e−1)) ≠ 1.
		for n := int64(2); ; n++ {
			c := f.Reduce(big.NewInt(n))
			f.exp(&c, &c, &sl)
			t := c
			for i := 1; i < f.tsE; i++ {
				f.Mul(&t, &t, &t)
			}
			if t != f.One() {
				f.tsC = c
				break
			}
		}
		e.Rsh(s.Sub(s, big.NewInt(1)), 1)
	}
	f.sqrtExp = field.Limbs(e)
	fields[key] = f
	return f, nil
}

// limbWords is the number of big.Words one 64-bit limb fills: one on
// 64-bit platforms, two where big.Word is 32 bits wide.
const limbWords = 64 / bits.UintSize

// ToBigs converts one message's worth of elements, with three
// allocations for the whole batch instead of two per element: the
// integers and their words are carved out of two slabs (big.Int.SetBits
// adopts a word slice as is), each element's words as many as the
// field's width has limbs. Every word slice is capped at its own length,
// so an integer a caller later grows reallocates instead of running into
// its neighbour.
func (f *Field) ToBigs(xs []field.Elem) []*big.Int {
	limbs := f.Width()
	n := limbs * limbWords
	out := make([]*big.Int, len(xs))
	ints := make([]big.Int, len(xs))
	words := make([]big.Word, len(xs)*n)
	for i := range xs {
		l := f.Plain(&xs[i])
		w := words[i*n : (i+1)*n : (i+1)*n]
		for k := 0; k < limbs; k++ {
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

// Rand draws a uniform element, consuming exactly the bytes
// crypto/rand.Int(rng, p) consumes — ⌈bitlen(p−1)/8⌉ per draw, top byte
// masked, redrawn while ≥ p — so a seeded stream deals the shares it
// dealt when this was math/big.
func (f *Field) Rand(rng io.Reader) (field.Elem, error) {
	var buf [32]byte // escapes through rng.Read; Scheme.Rand brings its own
	return f.rand(rng, &buf)
}

// rand is Rand reading through the caller's zeroed scratch buffer, whose
// bytes above the draw width it leaves zero.
func (f *Field) rand(rng io.Reader, buf *[32]byte) (field.Elem, error) {
	draw := buf[32-f.randBytes:]
	for {
		if _, err := io.ReadFull(rng, draw); err != nil {
			return field.Elem{}, fmt.Errorf("shamir: sampling field element: %w", err)
		}
		draw[0] &= f.randMask
		if z, ok := f.FromBytes(buf); ok {
			return z, nil
		}
	}
}

// InvBatch inverts every element of xs in place with one Inv and three
// multiplications per element (Montgomery's trick). Zeros stay zero.
func (f *Field) InvBatch(xs []field.Elem) {
	// prefix[i] is the product of the non-zero elements before i.
	prefix := make([]field.Elem, len(xs))
	acc := f.One()
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
func (f *Field) exp(z, x *field.Elem, e *[4]uint64) {
	base, acc := *x, f.One()
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
func (f *Field) Sqrt(z, x *field.Elem) bool {
	var w field.Elem
	switch {
	case f.pMod8&3 == 3:
		f.exp(&w, x, &f.sqrtExp) // x^((p+1)/4)
	case f.pMod8 == 5:
		// Atkin: b = (2x)^((p−5)/8), i = 2x·b², w = x·b·(i−1).
		var x2, b, i field.Elem
		one := f.One()
		f.Add(&x2, x, x)
		f.exp(&b, &x2, &f.sqrtExp)
		f.Mul(&i, &b, &b)
		f.Mul(&i, &i, &x2)
		f.Sub(&i, &i, &one)
		f.Mul(&w, x, &b)
		f.Mul(&w, &w, &i)
	default:
		if !f.tonelliShanks(&w, x) {
			return false
		}
	}
	var sq field.Elem
	f.Mul(&sq, &w, &w)
	if sq != *x {
		return false
	}
	var other field.Elem
	f.Neg(&other, &w)
	if pw, po := f.Plain(&w), f.Plain(&other); po.Less(&pw) {
		w = other
	}
	*z = w
	return true
}

// tonelliShanks finds a root of x when p ≡ 1 (mod 8), with p−1 = s·2^e
// and c = n^s for a non-residue n. It reports false when it can tell x
// is a non-residue; the caller squares the result to be sure.
func (f *Field) tonelliShanks(w, x *field.Elem) bool {
	var t, r, b field.Elem
	f.exp(&t, x, &f.sqrtExp) // x^((s−1)/2)
	f.Mul(&r, x, &t)         // x^((s+1)/2)
	f.Mul(&b, &r, &t)        // x^s
	g, e, one := f.tsC, f.tsE, f.One()
	for b != one && !b.IsZero() {
		// The least m with b^(2^m) = 1; m = e means x is a non-residue.
		m, sq := 0, b
		for sq != one {
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
