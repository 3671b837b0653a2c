package group

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// Hand-rolled binary wire form for group elements, the only form in
// which they cross a process boundary. Decoding runs with no group
// context, so it enforces structural sanity only (bounded, non-negative
// coordinates); full membership — curve equation, residue class — is
// the protocol layer's job via group.Validate on every element received
// from a peer.
//
// Layout (all lengths big-endian):
//
//	DL residue:   0x01 ‖ u16 len ‖ magnitude bytes (minimal, value ≥ 1)
//	EC point:     0x02 ‖ u16 xlen ‖ X ‖ u16 ylen ‖ Y (minimal magnitudes)
//	EC infinity:  0x03
//
// Magnitudes are emitted by big.Int.Bytes, so every value has exactly
// one encoding and the form is safe to hash for the canonical echo
// digest.
const (
	elemWireDL    = 0x01
	elemWireEC    = 0x02
	elemWireECInf = 0x03
)

// maxElemWireCoord bounds one coordinate's byte length (8192 bits), so
// a hostile length prefix cannot become a memory-pressure payload.
const maxElemWireCoord = 8192 / 8

// AppendElementWire appends e's structural wire form to dst. It fails
// on foreign Element implementations rather than guessing a layout.
func AppendElementWire(dst []byte, e Element) ([]byte, error) {
	switch v := e.(type) {
	case dlElement:
		b := v.v.Bytes()
		if len(b) == 0 || len(b) > maxElemWireCoord {
			return nil, fmt.Errorf("group: residue out of range")
		}
		dst = append(dst, elemWireDL)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
		return append(dst, b...), nil
	case ecPoint:
		if v.inf {
			return append(dst, elemWireECInf), nil
		}
		xb, yb := v.x.Bytes(), v.y.Bytes()
		if len(xb) > maxElemWireCoord || len(yb) > maxElemWireCoord {
			return nil, fmt.Errorf("group: oversized point coordinate")
		}
		dst = append(dst, elemWireEC)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(xb)))
		dst = append(dst, xb...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(yb)))
		return append(dst, yb...), nil
	default:
		return nil, fmt.Errorf("group: element type %T has no wire form", e)
	}
}

// DecodeElementWire parses one structural element form from the front
// of data, returning the element and the bytes consumed. Truncated or
// malformed input is an error, never a panic.
func DecodeElementWire(data []byte) (Element, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("group: truncated element encoding")
	}
	switch data[0] {
	case elemWireDL:
		b, n, err := readCoord(data[1:])
		if err != nil {
			return nil, 0, err
		}
		v := new(big.Int).SetBytes(b)
		if v.Sign() <= 0 {
			return nil, 0, fmt.Errorf("group: residue out of range")
		}
		return dlElement{v: v}, 1 + n, nil
	case elemWireEC:
		xb, nx, err := readCoord(data[1:])
		if err != nil {
			return nil, 0, err
		}
		yb, ny, err := readCoord(data[1+nx:])
		if err != nil {
			return nil, 0, err
		}
		return ecPoint{x: new(big.Int).SetBytes(xb), y: new(big.Int).SetBytes(yb)}, 1 + nx + ny, nil
	case elemWireECInf:
		return ecPoint{inf: true}, 1, nil
	default:
		return nil, 0, fmt.Errorf("group: unknown element wire tag 0x%02x", data[0])
	}
}

// readCoord parses one u16-length-prefixed magnitude.
func readCoord(data []byte) ([]byte, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("group: truncated element encoding")
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > maxElemWireCoord {
		return nil, 0, fmt.Errorf("group: oversized point coordinate")
	}
	if len(data) < 2+n {
		return nil, 0, fmt.Errorf("group: truncated element encoding")
	}
	return data[2 : 2+n], 2 + n, nil
}

// ElementPrototypes returns one zero value per concrete Element
// implementation, so the wirecodec registry can key its encoder table
// by dynamic type without this package importing it.
func ElementPrototypes() []Element {
	return []Element{dlElement{}, ecPoint{}}
}
