package service

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"groupranking/internal/api"
	"groupranking/internal/wirecodec"
)

func sampleControl() []any {
	return []any{
		ctlOpen{ID: "s-1", Spec: api.SessionSpec{
			Attributes: []api.Attribute{{Name: "age", Kind: api.KindEqualTo}, {Name: "pay", Kind: api.KindGreaterThan}},
			K:          2, D1: 7, D2: 4, H: 6, GroupName: "toy-dl-256",
			Sorter: api.SorterSecretSharing, Seed: "seed", TimeoutMS: 1500, IdempotencyKey: "key",
		}},
		ctlOpen{},
		ctlOpenAck{ID: "s-1", OK: true},
		ctlOpenAck{ID: "s-1", Code: api.CodeAdmissionFull, Reason: "at the cap"},
		ctlAbort{ID: "s-1", Reason: "peer abort: party 2 is down"},
	}
}

// The three control messages cross the mesh as registered frames and
// come back as the same values.
func TestControlCodecsRoundTrip(t *testing.T) {
	for _, v := range sampleControl() {
		frame, err := wirecodec.Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", v, err)
		}
		got, err := wirecodec.Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip changed %T:\n sent %#v\n recv %#v", v, v, got)
		}
	}
}

// The announced spec is decoded as strictly as an HTTP body: unknown
// fields and trailing data are refused at the codec, before admission.
func TestControlOpenSpecIsStrict(t *testing.T) {
	frame := func(spec string) []byte {
		payload := wirecodec.AppendBytes(wirecodec.AppendString(nil, "s-1"), []byte(spec))
		b := []byte{'G', 'W', wirecodec.Version}
		b = binary.BigEndian.AppendUint16(b, wirecodec.IDRangeService)
		return append(wirecodec.AppendU32(b, uint32(len(payload))), payload...)
	}
	if _, err := wirecodec.Unmarshal(frame(`{"attributes":[],"criterion":{"values":null,"weights":null},"k":2}`)); err != nil {
		t.Fatalf("well-formed spec refused: %v", err)
	}
	for _, spec := range []string{``, `{"k":2,"surprise":1}`, `{"k":2}{"k":3}`, `{"k":2} x`, `[1]`} {
		if v, err := wirecodec.Unmarshal(frame(spec)); err == nil {
			t.Errorf("spec %q accepted as %#v", spec, v)
		}
	}
}

// FuzzCtlDecode: arbitrary bytes presented as a control frame must
// produce an error or a value that re-encodes, never a panic. The
// seeds include what a version-1 daemon sent for these messages: a
// type-ID-1 frame holding a gob stream, which is refused by type ID.
func FuzzCtlDecode(f *testing.F) {
	for _, v := range sampleControl() {
		frame, err := wirecodec.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	var legacy bytes.Buffer
	var old any = "ctlAbort, as gob"
	if err := gob.NewEncoder(&legacy).Encode(&old); err != nil {
		f.Fatal(err)
	}
	legacyFrame := binary.BigEndian.AppendUint16([]byte{'G', 'W', wirecodec.Version}, 1)
	legacyFrame = wirecodec.AppendBytes(legacyFrame, legacy.Bytes())
	var unknown *wirecodec.UnknownTypeError
	if _, err := wirecodec.Unmarshal(legacyFrame); !errors.As(err, &unknown) {
		f.Fatalf("type-ID-1 frame = %v, want UnknownTypeError", err)
	}
	f.Add(legacyFrame)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wirecodec.Unmarshal(data)
		if err != nil {
			return
		}
		again, err := wirecodec.Marshal(v)
		if err != nil {
			t.Fatalf("accepted %T does not re-encode: %v", v, err)
		}
		if _, err := wirecodec.Unmarshal(again); err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
	})
}
