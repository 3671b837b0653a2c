package zkp

import (
	"fmt"
	"io"

	"groupranking/internal/group"
	"groupranking/internal/wirecodec"
)

// Binary wire form of an equality transcript:
//
//	CommitG ‖ CommitH ‖ Challenge ‖ Response
//
// with elements in the structural group.AppendElementWire form and
// scalars as sign ‖ u32 len ‖ magnitude. Decoding is structural only;
// VerifyEquality re-derives everything that matters, so a forged
// transcript fails verification rather than deserialisation.

// AppendBinary appends the wire form to dst.
func (t EqualityTranscript) AppendBinary(dst []byte) ([]byte, error) {
	var err error
	if dst, err = group.AppendElementWire(dst, t.CommitG); err != nil {
		return nil, fmt.Errorf("zkp: transcript commit a: %w", err)
	}
	if dst, err = group.AppendElementWire(dst, t.CommitH); err != nil {
		return nil, fmt.Errorf("zkp: transcript commit b: %w", err)
	}
	if dst, err = wirecodec.AppendBigInt(dst, t.Challenge); err != nil {
		return nil, fmt.Errorf("zkp: transcript challenge: %w", err)
	}
	if dst, err = wirecodec.AppendBigInt(dst, t.Response); err != nil {
		return nil, fmt.Errorf("zkp: transcript response: %w", err)
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t EqualityTranscript) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, 128))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *EqualityTranscript) UnmarshalBinary(data []byte) error {
	r := wirecodec.NewReader(data)
	*t = ReadTranscript(r)
	if err := r.Finish(); err != nil {
		return fmt.Errorf("zkp: transcript: %w", err)
	}
	return nil
}

// WriteTo implements io.WriterTo.
func (t EqualityTranscript) WriteTo(w io.Writer) (int64, error) {
	b, err := t.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadTranscript parses one transcript from a wirecodec Reader; errors
// latch on the Reader. Protocol-message codecs embed transcripts
// through it and AppendBinary.
func ReadTranscript(r *wirecodec.Reader) EqualityTranscript {
	return EqualityTranscript{
		CommitG:   r.Element(),
		CommitH:   r.Element(),
		Challenge: r.BigInt(),
		Response:  r.BigInt(),
	}
}

func init() {
	wirecodec.Register(wirecodec.IDRangeCrypto+1, "zkp equality transcript",
		[]any{EqualityTranscript{}},
		func(dst []byte, v any) ([]byte, error) {
			return v.(EqualityTranscript).AppendBinary(dst)
		},
		func(data []byte) (any, error) {
			var t EqualityTranscript
			if err := t.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return t, nil
		})
}
