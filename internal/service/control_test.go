package service

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"groupranking/internal/api"
	"groupranking/internal/wirecodec"
	"groupranking/internal/workload"
)

func sampleControl() []any {
	return []any{
		ctlOpen{ID: "s-1", Spec: api.SessionSpec{
			Attributes: []workload.Attribute{{Name: "age", Kind: workload.EqualTo}, {Name: "pay", Kind: workload.GreaterThan}},
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

// TestSpecBytesPinned: a spec with both kinds, a criterion and every
// optional field set crosses the HTTP API, the ctlOpen frame and the
// session table as the bytes recorded when the API had kind and
// criterion types of its own, and decodes back to the same spec, so
// clients, peer daemons and session tables of those builds still
// interoperate.
func TestSpecBytesPinned(t *testing.T) {
	spec := api.SessionSpec{
		Attributes: []workload.Attribute{{Name: "age", Kind: workload.EqualTo}, {Name: "pay", Kind: workload.GreaterThan}},
		Criterion:  workload.Criterion{Values: []int64{30, 0}, Weights: []int64{2, 1}},
		K:          2, D1: 7, D2: 4, H: 6, GroupName: "toy-dl-256", Sorter: api.SorterSecretSharing,
		Seed: "seed", ProveDecryption: true, TimeoutMS: 1500, IdempotencyKey: "key",
	}
	const (
		body = `{"attributes":[{"name":"age","kind":"eq"},{"name":"pay","kind":"gt"}],` +
			`"criterion":{"values":[30,0],"weights":[2,1]},"k":2,"d1":7,"d2":4,"h":6,` +
			`"group":"toy-dl-256","sorter":"secret-sharing","seed":"seed","prove_decryption":true,` +
			`"timeout_ms":1500,"idempotency_key":"key"}`
		record = `{"t":"open","id":"s-1","spec":` + body + `,"created_ms":1700000000000}`
	)
	got, err := json.Marshal(spec)
	if err != nil || string(got) != body {
		t.Errorf("spec encodes as\n %s (%v), want\n %s", got, err, body)
	}
	var back api.SessionSpec
	if err := json.Unmarshal([]byte(body), &back); err != nil || !reflect.DeepEqual(back, spec) {
		t.Errorf("pinned body decodes as %+v (%v)", back, err)
	}

	// The announcement carries the spec with its criterion scrubbed, as
	// announceSession sends it: the frame header (magic "GW", codec
	// version 4, type ID 0x0060, payload length 277), the session ID and
	// the spec's JSON, each length-prefixed.
	frame := "47570400600000011500000003732d310000010a" + hex.EncodeToString([]byte(
		strings.Replace(body, `"values":[30,0],"weights":[2,1]`, `"values":null,"weights":null`, 1)))
	scrubbed := spec
	scrubbed.Criterion = workload.Criterion{}
	open := ctlOpen{ID: "s-1", Spec: scrubbed}
	if got, err := wirecodec.Marshal(open); err != nil || hex.EncodeToString(got) != frame {
		t.Errorf("ctlOpen frame is\n %x (%v), want\n %s", got, err, frame)
	}
	raw, _ := hex.DecodeString(frame)
	if v, err := wirecodec.Unmarshal(raw); err != nil || !reflect.DeepEqual(v, open) {
		t.Errorf("pinned frame decodes as %#v (%v)", v, err)
	}

	rec := storeRec{T: "open", ID: "s-1", Spec: &spec, CreatedMS: 1700000000000}
	if got := rec.body(); string(got) != record {
		t.Errorf("open record is\n %s, want\n %s", got, record)
	}
	sessions := map[string]*storedSession{}
	var stored storeRec
	if err := json.Unmarshal([]byte(record), &stored); err != nil {
		t.Fatal(err)
	}
	if err := foldRec(sessions, new(int), stored); err != nil || sessions["s-1"] == nil || !reflect.DeepEqual(sessions["s-1"].Spec, spec) {
		t.Errorf("pinned record folds to %+v (%v)", sessions["s-1"], err)
	}
}

// The announced spec is decoded as strictly as an HTTP body: unknown
// fields, trailing data and an attribute kind that is unknown, missing
// or null are refused at the codec, before admission.
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
	for _, spec := range []string{``, `{"k":2,"surprise":1}`, `{"k":2}{"k":3}`, `{"k":2} x`, `[1]`,
		`{"attributes":[{"name":"x","kind":"between"}]}`, `{"attributes":[{"name":"x"}]}`, `{"attributes":[{"name":"x","kind":null}]}`} {
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
