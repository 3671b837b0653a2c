package shamir

import (
	"fmt"
	"io"
	"math/big"
	"sync"

	"groupranking/internal/field"
)

// The secret-sharing stack's prime field: the shared limb field
// (internal/field) of a DRBG-drawn prime, plus what only this stack
// needs — a per-prime memo with the primality test, uniform draws that
// consume exactly crypto/rand.Int's bytes, and batch inversion. Every
// prime a public entry point derives at the benchmarked and default
// parameter sets is below 2^128, so shares run on the two-limb body.

// Field is the field of one prime. It is immutable after NewField and
// safe for concurrent use.
type Field struct {
	field.Field

	// Rand draws exactly what crypto/rand.Int(rng, p) draws.
	randBytes int  // ⌈bitlen(p−1)/8⌉
	randMask  byte // keeps bitlen(p−1) mod 8 bits of the top byte
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
	f := &Field{Field: lf}

	top := new(big.Int).Sub(p, big.NewInt(1)).BitLen()
	f.randBytes = (top + 7) / 8
	f.randMask = byte(0xff)
	if b := top % 8; b != 0 {
		f.randMask = byte(1<<uint(b) - 1)
	}

	fields[key] = f
	return f, nil
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
