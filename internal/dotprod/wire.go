package dotprod

import (
	"fmt"

	"groupranking/internal/wirecodec"
)

// Hand-rolled wire forms for both protocol flows, their integer runs
// (wirecodec.Uints) as they are:
//
//	BobMessage: u32 s ‖ s × run(QX row) ‖ run(c') ‖ run(g)
//	AliceReply: run(a, h)
//
// so a frame is its s·d + 2d (Bob) or 2 (Alice) field elements plus the
// count and the run headers; the framework charges the elements (its
// gain rounds in internal/core). Decoding is structural only: Validate, which both receive
// paths already run, checks every run's width, length and entries
// against the field.

// AppendBinary appends m's wire form to dst.
func (m *BobMessage) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirecodec.AppendU32(dst, uint32(len(m.QX)))
	var err error
	for _, u := range m.runs() {
		if dst, err = wirecodec.AppendUints(dst, u); err != nil {
			return nil, fmt.Errorf("dotprod: bob message: %w", err)
		}
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *BobMessage) UnmarshalBinary(data []byte) error {
	r := wirecodec.NewReader(data)
	rows := r.Count(6) // each row is a run of at least its 6-byte header
	runs := make([]wirecodec.Uints, rows+2)
	for i := range runs {
		runs[i] = r.Uints()
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("dotprod: bob message: %w", err)
	}
	m.QX, m.CPrime, m.G = runs[:rows:rows], runs[rows], runs[rows+1]
	return nil
}

// AppendBinary appends a's wire form to dst.
func (a *AliceReply) AppendBinary(dst []byte) ([]byte, error) {
	dst, err := wirecodec.AppendUints(dst, a.AH)
	if err != nil {
		return nil, fmt.Errorf("dotprod: alice reply: %w", err)
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *AliceReply) UnmarshalBinary(data []byte) error {
	r := wirecodec.NewReader(data)
	ah := r.Uints()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("dotprod: alice reply: %w", err)
	}
	a.AH = ah
	return nil
}

func init() {
	wirecodec.Register(wirecodec.IDRangeProtocol, "dotprod bob message",
		[]any{&BobMessage{}},
		func(dst []byte, v any) ([]byte, error) { return v.(*BobMessage).AppendBinary(dst) },
		func(data []byte) (any, error) {
			m := new(BobMessage)
			if err := m.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return m, nil
		})
	wirecodec.Register(wirecodec.IDRangeProtocol+1, "dotprod alice reply",
		[]any{&AliceReply{}},
		func(dst []byte, v any) ([]byte, error) { return v.(*AliceReply).AppendBinary(dst) },
		func(data []byte) (any, error) {
			a := new(AliceReply)
			if err := a.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return a, nil
		})
}
