package zkp

import (
	"fmt"

	"groupranking/internal/wirecodec"
)

// Wire form of an equality transcript:
//
//	CommitG ‖ CommitH ‖ Challenge ‖ Response
//
// with the commitments as their group's fixed-width canonical bytes,
// appended through the payload's ElementWriter, and scalars as sign ‖
// u32 len ‖ magnitude. VerifyEquality re-derives everything that
// matters, so a forged transcript fails verification rather than
// deserialisation.

// AppendTranscript appends t to dst through w; protocol-message codecs
// embed transcripts through it and ReadTranscript.
func AppendTranscript(dst []byte, w *wirecodec.ElementWriter, t EqualityTranscript) ([]byte, error) {
	var err error
	if dst, err = w.Append(dst, t.CommitG); err != nil {
		return nil, fmt.Errorf("zkp: transcript commit a: %w", err)
	}
	if dst, err = w.Append(dst, t.CommitH); err != nil {
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

// ReadTranscript parses one transcript from a wirecodec Reader; errors
// latch on the Reader.
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
			dst, w := wirecodec.BeginElements(dst)
			return AppendTranscript(dst, &w, v.(EqualityTranscript))
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			r.Group()
			t := ReadTranscript(r)
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("zkp: transcript: %w", err)
			}
			return t, nil
		})
}
