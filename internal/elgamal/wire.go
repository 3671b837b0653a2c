package elgamal

import (
	"fmt"
	"io"

	"groupranking/internal/group"
	"groupranking/internal/wirecodec"
)

// Binary wire form of a ciphertext: the two structural element
// encodings C ‖ C1 (group.AppendElementWire), no framing of its own.
// Decoding needs no group context and checks structure only; the
// protocol layer validates membership of both components via
// group.Validate before using a foreign ciphertext.

// AppendBinary appends the wire form to dst, implementing the
// append-style serialisation convention alongside MarshalBinary.
func (ct Ciphertext) AppendBinary(dst []byte) ([]byte, error) {
	dst, err := group.AppendElementWire(dst, ct.C)
	if err != nil {
		return nil, fmt.Errorf("elgamal: ciphertext C: %w", err)
	}
	dst, err = group.AppendElementWire(dst, ct.C1)
	if err != nil {
		return nil, fmt.Errorf("elgamal: ciphertext C1: %w", err)
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (ct Ciphertext) MarshalBinary() ([]byte, error) {
	return ct.AppendBinary(make([]byte, 0, 2*48))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Malformed
// input is an error, never a panic.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	c, n, err := group.DecodeElementWire(data)
	if err != nil {
		return fmt.Errorf("elgamal: ciphertext C: %w", err)
	}
	c1, m, err := group.DecodeElementWire(data[n:])
	if err != nil {
		return fmt.Errorf("elgamal: ciphertext C1: %w", err)
	}
	if n+m != len(data) {
		return fmt.Errorf("elgamal: %d trailing bytes after ciphertext", len(data)-n-m)
	}
	ct.C, ct.C1 = c, c1
	return nil
}

// WriteTo implements io.WriterTo.
func (ct Ciphertext) WriteTo(w io.Writer) (int64, error) {
	b, err := ct.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadCiphertext parses one ciphertext from a wirecodec Reader; errors
// latch on the Reader.
func ReadCiphertext(r *wirecodec.Reader) Ciphertext {
	return Ciphertext{C: r.Element(), C1: r.Element()}
}

// AppendCiphertextWire appends ct's wire form to dst; protocol-message
// codecs embed ciphertexts through it.
func AppendCiphertextWire(dst []byte, ct Ciphertext) ([]byte, error) {
	return ct.AppendBinary(dst)
}

func init() {
	wirecodec.Register(wirecodec.IDRangeCrypto, "elgamal ciphertext",
		[]any{Ciphertext{}},
		func(dst []byte, v any) ([]byte, error) {
			return v.(Ciphertext).AppendBinary(dst)
		},
		func(data []byte) (any, error) {
			var ct Ciphertext
			if err := ct.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return ct, nil
		})
}

// enforce the serialisation interfaces at compile time
var (
	_ io.WriterTo = Ciphertext{}
	_ interface {
		MarshalBinary() ([]byte, error)
	} = Ciphertext{}
	_ interface {
		UnmarshalBinary([]byte) error
	} = (*Ciphertext)(nil)
)
