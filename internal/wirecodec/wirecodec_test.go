package wirecodec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math/big"
	"reflect"
	"testing"
	"testing/iotest"

	"groupranking/internal/group"
)

func testGroups(t *testing.T) []group.Group {
	t.Helper()
	return []group.Group{group.ToyDL256(), group.Secp160r1()}
}

func TestRoundtripScalars(t *testing.T) {
	cases := []any{
		nil,
		int(0),
		int(-42),
		int(1 << 40),
		"",
		"hello wire",
		[]byte{},
		[]byte{0, 1, 2, 255},
		Uints{Width: 3},
		Uints{Width: 1, Data: []byte{7, 9, 0}},
		Uints{Width: 384, Data: make([]byte, 768)},
	}
	for _, v := range cases {
		b, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", v, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("roundtrip %#v: got %#v", v, got)
		}
	}
}

// TestRoundtripElements: an element frame is the header, the group
// byte and the group's canonical encoding, and decodes back under the
// group it names.
func TestRoundtripElements(t *testing.T) {
	for _, g := range testGroups(t) {
		k := big.NewInt(123456789)
		for _, e := range []group.Element{g.Identity(), g.Generator(), group.ExpGen(g, k)} {
			b, err := Marshal(e)
			if err != nil {
				t.Fatalf("%s: Marshal: %v", g.Name(), err)
			}
			if want := append([]byte{group.WireID(g)}, g.AppendElement(nil, e)...); !bytes.Equal(b[headerLen:], want) {
				t.Fatalf("%s: element payload %x, want %x", g.Name(), b[headerLen:], want)
			}
			got, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("%s: Unmarshal: %v", g.Name(), err)
			}
			ge, ok := got.(group.Element)
			if !ok {
				t.Fatalf("%s: decoded %T, want element", g.Name(), got)
			}
			if !g.Equal(ge, e) {
				t.Fatalf("%s: element changed across roundtrip", g.Name())
			}
		}
	}
}

// testPair is scaffolding: a payload type only this test file knows,
// given a codec in the test-only ID block the way any _test.go that
// needs its own wire type must (there is no reflection fallback).
type testPair struct {
	A string
	B int
}

func init() {
	Register(IDRangeTest, "test pair", []any{testPair{}},
		func(dst []byte, v any) ([]byte, error) {
			p := v.(testPair)
			return AppendI64(AppendString(dst, p.A), int64(p.B)), nil
		},
		func(data []byte) (any, error) {
			r := NewReader(data)
			p := testPair{A: r.String(), B: r.Int()}
			return p, r.Finish()
		})
}

func TestTestBlockCodec(t *testing.T) {
	v := testPair{A: "q", B: 1}
	b, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil || got != v {
		t.Fatalf("test-block roundtrip: got %#v, %v", got, err)
	}
}

func TestUnregisteredTypeIsError(t *testing.T) {
	// *big.Int and []*big.Int have had no codec since version 4: an
	// integer travels in a run (Uints) at its modulus's width.
	for _, v := range []any{map[string]int{"x": 3}, struct{ A string }{"q"}, int32(7), &testPair{}, big.NewInt(1), []*big.Int{}} {
		_, err := Marshal(v)
		var ee *EncodeError
		if !errors.Is(err, ErrUnregisteredType) || !errors.As(err, &ee) {
			t.Fatalf("Marshal(%T) = %v, want an EncodeError wrapping ErrUnregisteredType", v, err)
		}
		var buf bytes.Buffer
		if err := WriteValue(&buf, v); !errors.As(err, &ee) || buf.Len() != 0 {
			t.Fatalf("WriteValue(%T) = %v after writing %d bytes, want an EncodeError and nothing written", v, err, buf.Len())
		}
	}
	// A codec's own failure is an EncodeError too, but not this one.
	_, err := Marshal(Uints{Width: 2, Data: []byte{1, 2, 3}})
	var ee *EncodeError
	if !errors.As(err, &ee) || errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("Marshal of a ragged integer run = %v, want a plain EncodeError", err)
	}
}

// legacyGobFrame builds what version 1 of the format sent for a type
// without a codec: a type-ID-1 frame whose payload is a gob stream.
func legacyGobFrame(t testing.TB, v any) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&v); err != nil {
		t.Fatal(err)
	}
	b := []byte{'G', 'W', Version}
	b = appendU16(b, 1)
	b = AppendU32(b, uint32(payload.Len()))
	return append(b, payload.Bytes()...)
}

func TestRetiredGobFrameRefused(t *testing.T) {
	frame := legacyGobFrame(t, "hostile")
	var ue *UnknownTypeError
	if _, _, err := consumeValue(frame); !errors.As(err, &ue) || ue.ID != 1 {
		t.Fatalf("consumeValue(type-ID-1 frame) = %v, want UnknownTypeError{1}", err)
	}
	if _, err := ReadValue(bytes.NewReader(frame)); !errors.As(err, &ue) || ue.ID != 1 {
		t.Fatalf("ReadValue(type-ID-1 frame) = %v, want UnknownTypeError{1}", err)
	}
	// Nested inside a well-formed outer payload it fails the same way.
	r := NewReader(frame)
	if v := r.Value(); v != nil || !errors.As(r.Err(), &ue) {
		t.Fatalf("Reader.Value(type-ID-1 frame) = %v, %v", v, r.Err())
	}
	// Every retired ID — the gob fallback, the two signed big-integer
	// frames the integer run replaced, the bare equality transcript, and
	// the four transport frames the one link layer and the recovering mux
	// replaced — is refused by Register and unknown to a receiver.
	for _, id := range []uint16{1, 4, 5, 17, 82, 83, 84, 85} {
		hdr := AppendU32(appendU16([]byte{'G', 'W', Version}, id), 0)
		if _, _, err := consumeValue(hdr); !errors.As(err, &ue) || ue.ID != id {
			t.Errorf("consumeValue(type-ID-%d frame) = %v, want UnknownTypeError{%d}", id, err, id)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted the retired type ID %d", id)
				}
			}()
			Register(id, "squatter", nil, nil, nil)
		}()
	}
}

func TestDeterministicEncoding(t *testing.T) {
	v, err := UintsOf(40, []*big.Int{big.NewInt(42), new(big.Int).Lsh(big.NewInt(3), 300)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same value produced different encodings")
	}
}

func TestFrameErrors(t *testing.T) {
	good, err := Marshal(77)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			if _, _, err := consumeValue(good[:i]); err == nil {
				t.Fatalf("accepted %d-byte prefix of a %d-byte frame", i, len(good))
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		if _, _, err := consumeValue(b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[2] = Version + 1
		_, _, err := consumeValue(b)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("got %v, want VersionError", err)
		}
		if ve.Got != Version+1 || ve.Want != Version {
			t.Fatalf("VersionError fields got=%d want=%d", ve.Got, ve.Want)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[3], b[4] = 0xFF, 0xFF
		_, _, err := consumeValue(b)
		var ue *UnknownTypeError
		if !errors.As(err, &ue) {
			t.Fatalf("got %v, want UnknownTypeError", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[5], b[6], b[7], b[8] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, _, err := consumeValue(b); !errors.Is(err, ErrOversizedFrame) {
			t.Fatalf("got %v, want ErrOversizedFrame", err)
		}
	})
	t.Run("trailing payload garbage", func(t *testing.T) {
		// Extend the payload by one byte and fix up the length so the
		// frame parses but the int codec sees 9 payload bytes.
		b := append(append([]byte(nil), good...), 0)
		b[8]++
		if _, _, err := consumeValue(b); err == nil {
			t.Fatal("accepted payload with trailing bytes")
		}
	})
	t.Run("trailing frame garbage", func(t *testing.T) {
		if _, err := Unmarshal(append(append([]byte(nil), good...), 1, 2, 3)); err == nil {
			t.Fatal("Unmarshal accepted trailing bytes")
		}
	})
}

func TestStreamRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	vals := []any{int(5), "stream", Uints{Width: 4, Data: []byte{0x40, 0, 0, 0}}, nil}
	for _, v := range vals {
		if err := WriteValue(&buf, v); err != nil {
			t.Fatalf("WriteValue(%#v): %v", v, err)
		}
	}
	for _, want := range vals {
		got, err := ReadValue(&buf)
		if err != nil {
			t.Fatalf("ReadValue: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream roundtrip: got %#v want %#v", got, want)
		}
	}
	if _, err := ReadValue(&buf); err == nil {
		t.Fatal("ReadValue on empty stream succeeded")
	}
}

func TestReaderHostileCounts(t *testing.T) {
	// A 4-byte count header demanding millions of entries must fail
	// before allocating, not after.
	b := AppendU32(nil, 1<<31-1)
	r := NewReader(b)
	if got := r.Count(5); got != 0 || r.Err() == nil {
		t.Fatalf("Count accepted implausible header: n=%d err=%v", got, r.Err())
	}
	r2 := NewReader(AppendU32(appendU16(nil, 1), 1<<30))
	if u := r2.Uints(); u.Data != nil || r2.Err() == nil {
		t.Fatal("Uints accepted implausible count")
	}
}

func TestNestedValueReader(t *testing.T) {
	inner, err := AppendValue(nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(inner)
	v := r.Value()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if v.(int) != 99 {
		t.Fatalf("nested value: got %v", v)
	}
}

// TestUintsRun pins the one integer form: width ‖ count ‖ fixed-width
// big-endian values, built only from integers that fit the width, and
// refused by a receiver whose modulus takes another width or sits at or
// below a value.
func TestUintsRun(t *testing.T) {
	m := big.NewInt(1000) // two bytes wide
	u, err := UintsOf(WidthOf(m), []*big.Int{big.NewInt(0), big.NewInt(999), big.NewInt(256)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 2, 0, 0, 0, 3, 0, 0, 0x03, 0xe7, 1, 0}; !bytes.Equal(b[headerLen:], want) {
		t.Fatalf("run payload %x, want %x", b[headerLen:], want)
	}
	if len(b) != headerLen+6+3*2 {
		t.Fatalf("%d-byte frame for three 2-byte integers", len(b))
	}
	if xs, err := IntsOf(u, m, 3); err != nil || xs[1].Int64() != 999 || xs[2].Int64() != 256 {
		t.Fatalf("Ints = %v, %v", xs, err)
	}
	for _, bad := range [][]*big.Int{{nil}, {big.NewInt(-1)}, {big.NewInt(1 << 16)}} {
		if _, err := UintsOf(2, bad); err == nil {
			t.Errorf("UintsOf(2, %v) accepted an integer with no 2-byte form", bad)
		}
	}
	if _, err := IntsOf(u, big.NewInt(999), 3); err == nil {
		t.Error("a value equal to the modulus passed the receive check")
	}
	if _, err := IntsOf(u, big.NewInt(1<<20), 3); err == nil {
		t.Error("a 2-byte run passed the receive check of a 3-byte modulus")
	}
	if _, err := IntsOf(u, big.NewInt(200), 3); err == nil {
		t.Error("a 2-byte run passed the receive check of a 1-byte modulus")
	}
	if _, err := IntsOf(u, m, 2); err == nil {
		t.Error("a run of three passed the receive check of a run of two")
	}
	if _, err := IntsOf([]*big.Int{big.NewInt(1)}, m, 1); err == nil {
		t.Error("a payload that is no run passed the receive check")
	}
	for _, payload := range [][]byte{
		{0, 0, 0, 0, 0, 0},                // width 0
		{0x02, 0x01, 0, 0, 0, 0},          // width 513, past the cap
		{0, 2, 0, 0, 0, 2, 1, 2, 3},       // a count the payload cannot hold
		{0, 2, 0, 0, 0, 1, 1, 2, 3},       // a trailing byte
		{0, 2, 0x7f, 0xff, 0xff, 0xff, 1}, // a hostile count
	} {
		r := NewReader(payload)
		r.Uints()
		if r.Finish() == nil {
			t.Errorf("run payload %x accepted", payload)
		}
	}
}

// TestReadValueLongPayload reads frames on both sides of sizedPayload,
// the longest payload sized from its header, in one piece and as a
// dribble of short reads: each decodes to what was written, and each cut
// short fails as io.ReadFull reports it, io.ErrUnexpectedEOF after some
// payload bytes and io.EOF before any.
func TestReadValueLongPayload(t *testing.T) {
	for _, size := range []int{sizedPayload - 6, sizedPayload + 1, 3*sizedPayload + 5} {
		u := Uints{Width: 1, Data: make([]byte, size-6)} // u16 width ‖ u32 count
		for i := range u.Data {
			u.Data[i] = byte(i * 7)
		}
		frame, err := Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]io.Reader{
			"whole":   bytes.NewReader(frame),
			"dribble": iotest.HalfReader(bytes.NewReader(frame)),
		} {
			v, err := ReadValue(r)
			if err != nil || !reflect.DeepEqual(v, u) {
				t.Fatalf("%d-byte payload, %s: ReadValue = %v", size, name, err)
			}
		}
		for cut, want := range map[int]error{headerLen: io.EOF, headerLen + 1: io.ErrUnexpectedEOF, len(frame) - 1: io.ErrUnexpectedEOF} {
			if _, err := ReadValue(bytes.NewReader(frame[:cut])); !errors.Is(err, want) {
				t.Fatalf("%d-byte payload cut to %d bytes: ReadValue = %v, want %v", size, cut, err, want)
			}
		}
	}
}
