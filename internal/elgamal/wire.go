package elgamal

import (
	"fmt"

	"groupranking/internal/wirecodec"
)

// Wire form of a ciphertext: its two elements C ‖ C1, each as its
// group's fixed-width canonical bytes, appended through the payload's
// ElementWriter, which names the group once per payload. Decoding runs
// the named group's Decode on both; the protocol layer still checks
// that it is the session's group (group.Validate) before using a
// foreign ciphertext.

// AppendCiphertext appends ct's two elements to dst through w;
// protocol-message codecs embed ciphertexts through it.
func AppendCiphertext(dst []byte, w *wirecodec.ElementWriter, ct Ciphertext) ([]byte, error) {
	dst, err := w.Append(dst, ct.C)
	if err != nil {
		return nil, fmt.Errorf("elgamal: ciphertext C: %w", err)
	}
	dst, err = w.Append(dst, ct.C1)
	if err != nil {
		return nil, fmt.Errorf("elgamal: ciphertext C1: %w", err)
	}
	return dst, nil
}

// ReadCiphertext parses one ciphertext from a wirecodec Reader; errors
// latch on the Reader.
func ReadCiphertext(r *wirecodec.Reader) Ciphertext {
	return Ciphertext{C: r.Element(), C1: r.Element()}
}

func init() {
	wirecodec.Register(wirecodec.IDRangeCrypto, "elgamal ciphertext",
		[]any{Ciphertext{}},
		func(dst []byte, v any) ([]byte, error) {
			dst, w := wirecodec.BeginElements(dst)
			return AppendCiphertext(dst, &w, v.(Ciphertext))
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			r.Group()
			ct := ReadCiphertext(r)
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return ct, nil
		})
}
