package wirecodec

import (
	"fmt"
	"math/big"
)

// Uints is a run of unsigned integers below one modulus, the one form
// in which an integer (an SS share, a dot-product field element, a
// proof scalar) crosses a process boundary: Width bytes each,
// big-endian, the width of the modulus (WidthOf), which every receiver
// checks, with each value, against its own (IntsOf, or a field's
// FromBytes). On the wire: u16 width ‖ u32 count ‖ count × width bytes;
// two width bytes, as modp-3072's order takes 384.
type Uints struct {
	Width int
	Data  []byte // Len()·Width bytes
}

const maxWidth = 4096 / 8 // bytes

// WidthOf returns the width integers below m travel at, ⌈bitlen(m)/8⌉.
func WidthOf(m *big.Int) int { return (m.BitLen() + 7) / 8 }

// UintsOf returns xs as a run of width-byte integers (see AppendInts).
func UintsOf(width int, xs []*big.Int) (Uints, error) {
	b, err := AppendInts(nil, width, xs...)
	if err != nil {
		return Uints{}, err
	}
	return Uints{Width: width, Data: b[6:]}, nil // past the width and count
}

// AppendInts appends xs as a run of width-byte integers, refusing a
// nil, negative or wider one.
func AppendInts(dst []byte, width int, xs ...*big.Int) ([]byte, error) {
	if width < 1 || width > maxWidth {
		return nil, fmt.Errorf("wirecodec: integer run width %d outside [1, %d]", width, maxWidth)
	}
	dst = AppendU32(appendU16(dst, uint16(width)), uint32(len(xs)))
	for i, x := range xs {
		if x == nil || x.Sign() < 0 || WidthOf(x) > width {
			return nil, fmt.Errorf("wirecodec: integer %d of the run has no %d-byte form", i, width)
		}
		n := len(dst)
		dst = append(dst, make([]byte, width)...)
		x.FillBytes(dst[n:])
	}
	return dst, nil
}

// AppendUints appends u's wire form.
func AppendUints(dst []byte, u Uints) ([]byte, error) {
	if u.Width < 1 || u.Width > maxWidth || len(u.Data)%u.Width != 0 {
		return nil, fmt.Errorf("wirecodec: malformed integer run (%d bytes at width %d)", len(u.Data), u.Width)
	}
	dst = AppendU32(appendU16(dst, uint16(u.Width)), uint32(u.Len()))
	return append(dst, u.Data...), nil
}

// Len returns the number of integers in the run.
func (u Uints) Len() int {
	if u.Width <= 0 {
		return 0
	}
	return len(u.Data) / u.Width
}

// At returns integer i's bytes, aliasing the run.
func (u Uints) At(i int) []byte { return u.Data[i*u.Width : (i+1)*u.Width] }

// IntsOf is the receive check of a payload that must be a run of count
// integers (any number for count < 0) below modulus m: at m's width,
// each below m. It returns the integers.
func IntsOf(payload any, m *big.Int, count int) ([]*big.Int, error) {
	u, ok := payload.(Uints)
	if !ok || u.Width != WidthOf(m) || len(u.Data)%u.Width != 0 || count >= 0 && u.Len() != count {
		return nil, fmt.Errorf("wirecodec: %T of %d bytes at width %d where %d integers of width %d belong",
			payload, len(u.Data), u.Width, count, WidthOf(m))
	}
	out := make([]*big.Int, u.Len())
	for i := range out {
		if out[i] = new(big.Int).SetBytes(u.At(i)); out[i].Cmp(m) >= 0 {
			return nil, fmt.Errorf("wirecodec: integer %d of the run is not below the modulus", i)
		}
	}
	return out, nil
}
