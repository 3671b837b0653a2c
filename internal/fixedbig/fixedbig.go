// Package fixedbig provides small numeric helpers shared by the protocol
// packages: bit decomposition of big integers, signed/unsigned fixed-width
// conversions, random sampling, and the seeded DRBG every party draws
// its randomness from.
//
// All protocol values in this repository are non-negative big.Ints carried
// together with an explicit bit width; this package centralises the
// conversions so width bookkeeping mistakes surface in exactly one place.
package fixedbig

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// Bits decomposes x into width little-endian bits (bits[0] is the least
// significant). It returns an error if x is negative or does not fit in
// width bits.
func Bits(x *big.Int, width int) ([]uint8, error) {
	if x.Sign() < 0 {
		return nil, fmt.Errorf("fixedbig: cannot decompose negative value %s", x)
	}
	if x.BitLen() > width {
		return nil, fmt.Errorf("fixedbig: value %s does not fit in %d bits", x, width)
	}
	bits := make([]uint8, width)
	for i := 0; i < width; i++ {
		bits[i] = uint8(x.Bit(i))
	}
	return bits, nil
}

// FromBits reassembles a little-endian bit slice into an integer.
func FromBits(bits []uint8) *big.Int {
	x := new(big.Int)
	for i, b := range bits {
		if b != 0 {
			x.SetBit(x, i, 1)
		}
	}
	return x
}

// ToUnsigned maps a signed integer in [-2^(width-1), 2^(width-1)) to an
// unsigned integer in [0, 2^width) by adding 2^(width-1). The mapping is
// strictly order preserving, which is the property the framework relies on
// (Section III-A of the paper).
func ToUnsigned(x *big.Int, width int) (*big.Int, error) {
	half := new(big.Int).Lsh(big.NewInt(1), uint(width-1))
	u := new(big.Int).Add(x, half)
	if u.Sign() < 0 || u.BitLen() > width {
		return nil, fmt.Errorf("fixedbig: signed value %s out of range for width %d", x, width)
	}
	return u, nil
}

// ToSigned inverts ToUnsigned.
func ToSigned(u *big.Int, width int) (*big.Int, error) {
	if u.Sign() < 0 || u.BitLen() > width {
		return nil, fmt.Errorf("fixedbig: unsigned value %s out of range for width %d", u, width)
	}
	half := new(big.Int).Lsh(big.NewInt(1), uint(width-1))
	return new(big.Int).Sub(u, half), nil
}

// RandInt returns a uniform integer in [0, max). It is a thin wrapper over
// crypto/rand.Int that accepts any entropy source.
func RandInt(rng io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, fmt.Errorf("fixedbig: RandInt max must be positive, got %s", max)
	}
	v, err := rand.Int(rng, max)
	if err != nil {
		return nil, fmt.Errorf("fixedbig: sampling random integer: %w", err)
	}
	return v, nil
}

// RandBits returns a uniform integer of at most width bits, i.e. in
// [0, 2^width).
func RandBits(rng io.Reader, width int) (*big.Int, error) {
	max := new(big.Int).Lsh(big.NewInt(1), uint(width))
	return RandInt(rng, max)
}

// RandNonZero returns a uniform integer in [1, max).
func RandNonZero(rng io.Reader, max *big.Int) (*big.Int, error) {
	one := big.NewInt(1)
	if max.Cmp(one) <= 0 {
		return nil, fmt.Errorf("fixedbig: RandNonZero max must exceed 1, got %s", max)
	}
	span := new(big.Int).Sub(max, one)
	v, err := RandInt(rng, span)
	if err != nil {
		return nil, err
	}
	return v.Add(v, one), nil
}

// CentredMod returns x mod p represented in the centred interval
// (-p/2, p/2]. Protocol packages use it to recover signed results from
// prime-field arithmetic.
func CentredMod(x, p *big.Int) *big.Int {
	r := new(big.Int).Mod(x, p)
	half := new(big.Int).Rsh(p, 1)
	if r.Cmp(half) > 0 {
		r.Sub(r, p)
	}
	return r
}

// Prime returns a probable prime of exactly the given bit length, drawn
// deterministically from rng (unlike crypto/rand.Prime, which
// deliberately desynchronises from its reader and therefore cannot be
// used when independent parties must derive the same prime from a
// shared seed).
func Prime(rng io.Reader, bits int) (*big.Int, error) {
	if bits < 2 {
		return nil, fmt.Errorf("fixedbig: prime needs at least 2 bits, got %d", bits)
	}
	for {
		c, err := RandBits(rng, bits)
		if err != nil {
			return nil, err
		}
		c.SetBit(c, bits-1, 1) // exact bit length
		c.SetBit(c, 0, 1)      // odd
		if c.ProbablyPrime(32) {
			return c, nil
		}
	}
}
