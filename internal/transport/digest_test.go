package transport

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"testing"

	"groupranking/internal/group"
	"groupranking/internal/wirecodec"
)

// The echo round compares digests computed by DIFFERENT processes: the
// sender digests its in-memory value, receivers digest the copy their
// transport decoded, and any representation drift between the two is
// reported as an equivocation by an honest party. The digest is the
// SHA-256 of the wire frame, so these tests pin that identity and the
// equivalences the codecs must provide for it to be safe.

// digestMsg and digestOther are scaffolding payloads of identical
// shape, each with a codec in the test-only ID block (see tcp_test.go).
type digestMsg struct {
	A, B   int
	Name   string
	Shares []*big.Int
}

type digestOther digestMsg

func init() {
	enc := func(dst []byte, m digestMsg) ([]byte, error) {
		dst = wirecodec.AppendI64(dst, int64(m.A))
		dst = wirecodec.AppendI64(dst, int64(m.B))
		dst = wirecodec.AppendString(dst, m.Name)
		return wirecodec.AppendInts(dst, 8, m.Shares...)
	}
	dec := func(data []byte) (digestMsg, error) {
		r := wirecodec.NewReader(data)
		m := digestMsg{A: r.Int(), B: r.Int(), Name: r.String()}
		shares := r.Uints()
		for i := 0; i < shares.Len(); i++ {
			m.Shares = append(m.Shares, new(big.Int).SetBytes(shares.At(i)))
		}
		return m, r.Finish()
	}
	wirecodec.Register(wirecodec.IDRangeTest+1, "test digest message", []any{digestMsg{}},
		func(dst []byte, v any) ([]byte, error) { return enc(dst, v.(digestMsg)) },
		func(data []byte) (any, error) { return dec(data) })
	wirecodec.Register(wirecodec.IDRangeTest+2, "test digest twin", []any{digestOther{}},
		func(dst []byte, v any) ([]byte, error) { return enc(dst, digestMsg(v.(digestOther))) },
		func(data []byte) (any, error) { m, err := dec(data); return digestOther(m), err })
}

func mustDigest(t *testing.T, v any) []byte {
	t.Helper()
	d, err := PayloadDigest(v)
	if err != nil {
		t.Fatalf("PayloadDigest(%#v): %v", v, err)
	}
	return d
}

// wireRoundTrip returns the copy of v a receiving fabric would hold.
func wireRoundTrip(t *testing.T, v any) any {
	t.Helper()
	frame, err := wirecodec.Marshal(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := wirecodec.Unmarshal(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// TestPayloadDigestIsFrameHash: for one value of every type this test
// binary has a codec for — the builtins, the transport's own frames and
// the scaffolding above — the digest is exactly SHA-256 of the frame.
func TestPayloadDigestIsFrameHash(t *testing.T) {
	g := group.Secp160r1()
	values := []any{
		nil, 7, "s", []byte{1, 2}, wirecodec.Uints{Width: 2, Data: []byte{0, 1}},
		g.Generator(), g.Identity(), group.ToyDL256().Generator(),
		echoMsg{Digests: [][]byte{{1}, nil}},
		Corrupted{Round: 3},
		hello{Party: 1, Epoch: 2, Mesh: "sid"},
		muxEnv{SID: "sid", Kind: muxKindData, Round: 1, Seq: 2, Payload: 4},
		wirePayload{From: 1, Text: "t"},
		digestMsg{A: 1, Shares: []*big.Int{big.NewInt(2)}},
		digestOther{B: 1},
	}
	for _, v := range values {
		frame, err := wirecodec.Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", v, err)
		}
		want := sha256.Sum256(frame)
		if got := mustDigest(t, v); !bytes.Equal(got, want[:]) {
			t.Errorf("PayloadDigest(%#v) is not the SHA-256 of its frame", v)
		}
	}
}

// TestPayloadDigestSurvivesWireRoundTrip: the receiver's decoded copy
// must digest identically to the sender's original, including the one
// representation the codecs do not round-trip identically — a nil
// slice arrives as an empty one (or the reverse). A nil scalar inside
// a slice has no wire form at all, so it has no digest either: the
// sender finds out before anything is broadcast.
func TestPayloadDigestSurvivesWireRoundTrip(t *testing.T) {
	cases := []any{
		digestMsg{A: 1, B: -7, Name: "x", Shares: []*big.Int{big.NewInt(42), big.NewInt(0)}},
		digestMsg{},
		digestMsg{Shares: []*big.Int{}},
		wirecodec.Uints{Width: 4},
		wirecodec.Uints{Width: 4, Data: []byte{}},
		[]byte(nil),
		echoMsg{},
	}
	for _, v := range cases {
		want := mustDigest(t, v)
		got := mustDigest(t, wireRoundTrip(t, v))
		if !bytes.Equal(want, got) {
			t.Errorf("digest of %#v changed across a wire round-trip:\n sent %x\n recv %x", v, want, got)
		}
	}
	if !bytes.Equal(mustDigest(t, wirecodec.Uints{Width: 4}), mustDigest(t, wirecodec.Uints{Width: 4, Data: []byte{}})) {
		t.Error("nil and empty integer runs digest differently")
	}
	var ee *wirecodec.EncodeError
	if _, err := PayloadDigest(digestMsg{Shares: []*big.Int{nil, big.NewInt(9)}}); !errors.As(err, &ee) {
		t.Errorf("digest of a nil scalar = %v, want an encode error", err)
	}
}

// TestPayloadDigestDistinguishes: values that differ in a field, in a
// concrete type, or in nesting must not collide.
func TestPayloadDigestDistinguishes(t *testing.T) {
	base := digestMsg{A: 1, B: 2, Name: "n", Shares: []*big.Int{big.NewInt(3)}}
	distinct := []any{
		base,
		digestMsg{A: 2, B: 2, Name: "n", Shares: []*big.Int{big.NewInt(3)}},
		digestMsg{A: 1, B: 2, Name: "m", Shares: []*big.Int{big.NewInt(3)}},
		digestMsg{A: 1, B: 2, Name: "n", Shares: []*big.Int{big.NewInt(4)}},
		digestMsg{A: 1, B: 2, Name: "n", Shares: []*big.Int{big.NewInt(3), big.NewInt(0)}},
		digestOther(base), // same shape, other type
		[]byte("n"),
		"n",
	}
	seen := map[string]any{}
	for _, v := range distinct {
		d := string(mustDigest(t, v))
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision between %#v and %#v", prev, v)
		}
		seen[d] = v
	}
}

// TestPayloadDigestRejectsMaps: a type without a codec — a map, whose
// iteration order could never be canonical, or any unregistered struct
// — has no frame and so no digest, loudly.
func TestPayloadDigestRejectsMaps(t *testing.T) {
	for _, v := range []any{map[string]int{"a": 1}, struct{ X int }{1}, &digestMsg{}} {
		if _, err := PayloadDigest(v); !errors.Is(err, wirecodec.ErrUnregisteredType) {
			t.Errorf("PayloadDigest(%T) = %v, want ErrUnregisteredType", v, err)
		}
	}
}
