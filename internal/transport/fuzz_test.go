package transport

import (
	"bufio"
	"bytes"
	"testing"

	"groupranking/internal/wirecodec"
)

// FuzzFrameReader drives the exact read path the TCP pumps use —
// wirecodec.ReadValue on a bufio.Reader over an untrusted stream — with
// arbitrary bytes. The contract under test: a hostile or corrupted
// stream must produce an error, never a panic, and any stream ReadValue
// does accept must decode to a value that re-encodes.
func FuzzFrameReader(f *testing.F) {
	seed := func(v any) []byte {
		data, err := wirecodec.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(muxEnv{SID: tcpFabricSID, Kind: muxKindData, Round: 3, Bytes: 40, Payload: "hello"}))
	f.Add(seed(muxEnv{SID: "sess", Kind: muxKindHeartbeat, Round: muxNoReply, Seq: 7}))
	f.Add(seed(hello{Party: 1, Epoch: 2, Mesh: "session/sess"}))
	f.Add(seed(echoMsg{Digests: [][]byte{{1, 2}, nil}}))
	f.Add(seed(Corrupted{Round: 5}))
	// Hostile shapes: truncated header, oversized length, garbage magic.
	f.Add([]byte{'G', 'W'})
	f.Add([]byte{'G', 'W', wirecodec.Version, 0, 83, 0xFF, 0xFF, 0xFF, 0xFF})
	// A version-1 peer's gob-fallback payload inside a sound envelope.
	f.Add(withLegacyPayload(f, muxEnv{SID: "sess", Kind: muxKindData, Round: 3, Bytes: 40, Seq: 1}))
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bufio.NewReader(bytes.NewReader(data))
		for {
			v, err := wirecodec.ReadValue(rd)
			if err != nil {
				return // rejected: the pump turns this into a typed abort
			}
			if _, err := wirecodec.Marshal(v); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v (%#v)", err, v)
			}
		}
	})
}

// FuzzEnvelopeDecode targets the envelope codec alone: arbitrary bytes
// presented as a complete frame payload, exercising the nested-payload
// path (an envelope carries a full inner frame).
func FuzzEnvelopeDecode(f *testing.F) {
	seed := func(v any) []byte {
		data, err := wirecodec.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(muxEnv{SID: tcpFabricSID, Kind: muxKindData, Round: 1, Bytes: 8, Payload: []byte{1, 2, 3}}))
	f.Add(seed(muxEnv{SID: "sess", Kind: muxKindResume, Round: muxNoReply, Seq: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wirecodec.Unmarshal(data)
		if err != nil {
			return
		}
		redone, err := wirecodec.Marshal(v)
		if err != nil {
			t.Fatalf("accepted value does not re-encode: %v (%#v)", err, v)
		}
		v2, err := wirecodec.Unmarshal(redone)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		_ = v2
	})
}

// FuzzMuxEnvDecode targets the mux frame decode path: the bytes a
// recovering daemon's lifetime listener accepts from anyone who can
// reach its port. Arbitrary input must never panic the decoder, and any
// accepted frame must survive a re-encode round trip — the property the
// mux pumps rely on to turn hostility into a typed link failure instead
// of a crash.
func FuzzMuxEnvDecode(f *testing.F) {
	seed := func(v any) []byte {
		data, err := wirecodec.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(muxEnv{SID: "s1", Kind: muxKindData, Round: 4, Bytes: 32, Seq: 9, Payload: "payload"}))
	f.Add(seed(muxEnv{Kind: muxKindControl, Payload: []byte{1, 2, 3}}))
	f.Add(seed(muxEnv{SID: "s2", Kind: muxKindResume, Seq: 17}))
	f.Add(seed(hello{Party: 3, Epoch: 2, Mesh: "mux"}))
	// Hostile shapes: truncated SID length, kind out of range, huge seq.
	f.Add([]byte{'G', 'W', wirecodec.Version, 0, 86, 0xFF})
	f.Add(withLegacyPayload(f, muxEnv{SID: "s1", Kind: muxKindControl}))
	f.Add(bytes.Repeat([]byte{0x42}, 48))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bufio.NewReader(bytes.NewReader(data))
		v, err := wirecodec.ReadValue(rd)
		if err != nil {
			return // the pump marks the link down; nothing to check
		}
		redone, err := wirecodec.Marshal(v)
		if err != nil {
			t.Fatalf("accepted mux frame does not re-encode: %v (%#v)", err, v)
		}
		v2, err := wirecodec.Unmarshal(redone)
		if err != nil {
			t.Fatalf("re-encoded mux frame does not decode: %v", err)
		}
		if env, ok := v.(muxEnv); ok {
			env2, ok2 := v2.(muxEnv)
			if !ok2 || env2.SID != env.SID || env2.Kind != env.Kind || env2.Seq != env.Seq {
				t.Fatalf("mux envelope did not round-trip: %#v vs %#v", env, v2)
			}
		}
	})
}
