package dotprod

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/wirecodec"
)

// TestFrameWidthsPinned: both flows encode to exactly their field
// elements (s·d + 2d for a Bob message, 2 for a reply) at the field's
// width plus framing, whatever the values, at a one-limb-wide and a
// three-limb-wide prime: the 9-byte frame header, and 6 bytes (u16
// width, u32 count) per integer run — s + 2 runs and the u32 s for a
// Bob message, one run for a reply.
func TestFrameWidthsPinned(t *testing.T) {
	rng := fixedbig.NewDRBG("dotprod-widths")
	for _, bits := range []int{61, 140} {
		p, err := fixedbig.Prime(rng, bits)
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultSRange(p)
		w := []*big.Int{big.NewInt(3), big.NewInt(0), new(big.Int).Sub(p, big.NewInt(1))}
		for run := 0; run < 4; run++ {
			_, msg, err := NewBob(params, w, rng)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := AliceRespond(params, msg, w, big.NewInt(int64(run)))
			if err != nil {
				t.Fatal(err)
			}
			s, d, fb := len(msg.QX), len(w)+1, params.FieldBytes()
			for _, c := range []struct {
				name     string
				v        any
				declared int
				framing  int
			}{
				{"bob message", msg, (s*d + 2*d) * fb, 9 + 4 + 6*(s+2)},
				{"alice reply", reply, 2 * fb, 9 + 6},
			} {
				frame, err := wirecodec.Marshal(c.v)
				if err != nil {
					t.Fatal(err)
				}
				if len(frame) != c.declared+c.framing {
					t.Errorf("%d-bit field, %s: %d-byte frame for %d declared bytes, want %d + %d",
						bits, c.name, len(frame), c.declared, c.declared, c.framing)
				}
			}
		}
	}
}

// FuzzBobMessageUnmarshal: no frame panics the decoder or Validate, and
// a frame either decoder accepts re-encodes to exactly its bytes (one
// width per message, one encoding per value).
func FuzzBobMessageUnmarshal(f *testing.F) {
	p, err := fixedbig.Prime(fixedbig.NewDRBG("dotprod-fuzz-field"), 61)
	if err != nil {
		f.Fatal(err)
	}
	params := DefaultSRange(p)
	_, msg, err := NewBob(params, []*big.Int{big.NewInt(4), big.NewInt(9)}, fixedbig.NewDRBG("dotprod-fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	reply, err := AliceRespond(params, msg, []*big.Int{big.NewInt(1), big.NewInt(2)}, big.NewInt(5))
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []any{msg, reply} {
		frame, err := wirecodec.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	frame := func(id uint16, payload []byte) []byte {
		b := binary.BigEndian.AppendUint16([]byte{'G', 'W', wirecodec.Version}, id)
		return append(wirecodec.AppendU32(b, uint32(len(payload))), payload...)
	}
	run := func(width, count int, data ...byte) []byte {
		return append(wirecodec.AppendU32(binary.BigEndian.AppendUint16(nil, uint16(width)), uint32(count)), data...)
	}
	bob, alice := wirecodec.IDRangeProtocol, wirecodec.IDRangeProtocol+1
	f.Add(frame(alice, run(0, 2)))                                       // width 0
	f.Add(frame(alice, run(33, 2, make([]byte, 66)...)))                 // wider than any field
	f.Add(frame(alice, run(8, 1<<20, 1, 2, 3)))                          // a count that overruns the payload
	f.Add(frame(alice, run(8, 2, bytes.Repeat([]byte{0xff}, 16)...)))    // values ≥ P
	f.Add(frame(bob, append(wirecodec.AppendU32(nil, 0), run(8, 0)...))) // one run where two must follow
	f.Add(frame(bob, append(wirecodec.AppendU32(nil, 1), run(8, 0)...))) // a row and nothing else
	f.Add(frame(bob, wirecodec.AppendU32(nil, 7)))                       // s rows and no runs
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wirecodec.Unmarshal(data)
		if err != nil {
			return
		}
		switch m := v.(type) {
		case *BobMessage:
			_ = m.Validate(params)
		case *AliceReply:
			_ = m.Validate(params)
		default:
			return
		}
		again, err := wirecodec.Marshal(v)
		if err != nil {
			t.Fatalf("accepted %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted frame %x re-encodes to %x", data, again)
		}
	})
}
