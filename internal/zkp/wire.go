package zkp

import (
	"fmt"

	"groupranking/internal/group"
	"groupranking/internal/wirecodec"
)

// Wire form of an equality transcript:
//
//	CommitG ‖ CommitH ‖ run(Challenge, Response)
//
// with the commitments as their group's fixed-width canonical bytes,
// appended through the payload's ElementWriter, and the two scalars as
// one integer run at the width of the group's order, which decoding
// checks, with each scalar being below the order, against the group the
// commitments decoded in. VerifyEquality re-derives everything else
// that matters, so a forged transcript fails verification rather than
// deserialisation.

// AppendTranscript appends t to dst through w: protocol-message codecs
// embed transcripts through it and ReadTranscript. A transcript has no
// frame of its own (its type ID, 17, is retired).
func AppendTranscript(dst []byte, w *wirecodec.ElementWriter, t EqualityTranscript) ([]byte, error) {
	var err error
	if dst, err = w.Append(dst, t.CommitG); err != nil {
		return nil, fmt.Errorf("zkp: transcript commit a: %w", err)
	}
	if dst, err = w.Append(dst, t.CommitH); err != nil {
		return nil, fmt.Errorf("zkp: transcript commit b: %w", err)
	}
	q := group.Of(t.CommitG).Order()
	if dst, err = wirecodec.AppendInts(dst, wirecodec.WidthOf(q), t.Challenge, t.Response); err != nil {
		return nil, fmt.Errorf("zkp: transcript scalars: %w", err)
	}
	return dst, nil
}

// ReadTranscript parses one transcript from a wirecodec Reader; errors
// latch on the Reader.
func ReadTranscript(r *wirecodec.Reader) EqualityTranscript {
	t := EqualityTranscript{CommitG: r.Element(), CommitH: r.Element()}
	u := r.Uints()
	if g := group.Of(t.CommitG); g != nil {
		cs, err := wirecodec.IntsOf(u, g.Order(), 2)
		r.Fail(err)
		if err == nil {
			t.Challenge, t.Response = cs[0], cs[1]
		}
	}
	return t
}
