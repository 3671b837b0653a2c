package wirecodec

import (
	"bytes"
	"testing"

	"groupranking/internal/group"
)

// Receive-boundary contract: arbitrary bytes from a peer must produce
// errors, never panics, and every accepted value must re-encode.

func fuzzSeeds(f *testing.F) {
	seeds := []any{
		nil,
		int(42),
		"seed",
		[]byte{1, 2, 3},
		Uints{Width: 1, Data: []byte{77}},
		Uints{Width: 32, Data: bytes.Repeat([]byte{5}, 64)},
		Uints{Width: 20},
		group.Secp160r1().Generator(),
		group.Secp256r1().Identity(),
		group.MODP1024().Generator(),
	}
	for _, v := range seeds {
		b, err := Marshal(v)
		if err != nil {
			f.Fatalf("seed %#v: %v", v, err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{'G', 'W', Version, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{'G', 'W', Version + 1, 0, 6, 0, 0, 0, 8})
	f.Add(legacyGobFrame(f, "version-1 fallback"))
	// An element frame naming no group, and one naming an unknown group.
	f.Add([]byte{'G', 'W', Version, 0, 3, 0, 0, 0, 1, 0})
	f.Add([]byte{'G', 'W', Version, 0, 3, 0, 0, 0, 2, 0x7F, 0})
	// Integer runs: width 0, a width past any field (33) and past the
	// cap, a count that overruns the payload, and values at 0xff…, at or
	// above any modulus of their width; and the retired big-integer IDs.
	run := func(payload ...byte) []byte {
		return append(AppendU32([]byte{'G', 'W', Version, 0, byte(idUints)}, uint32(len(payload))), payload...)
	}
	f.Add(run(0, 0, 0, 0, 0, 1, 7))
	f.Add(run(append([]byte{0, 33, 0, 0, 0, 1}, make([]byte, 33)...)...))
	f.Add(run(0xff, 0xff, 0, 0, 0, 1, 7))
	f.Add(run(0, 4, 0, 0, 1, 0, 1, 2, 3, 4))
	f.Add(run(0, 2, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{'G', 'W', Version, 0, 4, 0, 0, 0, 6, 0, 0, 0, 0, 1, 7})
	f.Add([]byte{'G', 'W', Version, 0, 5, 0, 0, 0, 4, 0, 0, 0, 0})
}

// reencode holds every accepted value to a round trip: whatever a
// decoder returns has a codec of its own, and an accepted group element
// or integer run re-encodes to exactly the frame it came from (there is
// one encoding per element and per run).
func reencode(t *testing.T, frame []byte, v any) {
	t.Helper()
	enc, err := Marshal(v)
	if err != nil {
		t.Fatalf("accepted value %T does not re-encode: %v", v, err)
	}
	if _, err := Unmarshal(enc); err != nil {
		t.Fatalf("re-encoded value failed to decode: %v", err)
	}
	switch v.(type) {
	case group.Element, Uints:
		if !bytes.Equal(enc, frame) {
			t.Fatalf("accepted %T frame %x re-encodes to %x", v, frame, enc)
		}
	}
}

func FuzzConsumeValue(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := consumeValue(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		reencode(t, data[:n], v)
	})
}

func FuzzReadValue(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		v, err := ReadValue(rd)
		if err != nil {
			return
		}
		reencode(t, data[:len(data)-rd.Len()], v)
	})
}

func FuzzReaderPrimitives(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.I64()
		_ = r.Bool()
		_ = r.Bytes()
		_ = r.String()
		_ = r.Uints()
		r.Group()
		_ = r.Element()
		_ = r.Err()
	})
}
