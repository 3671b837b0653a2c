package transport

import (
	"fmt"

	"groupranking/internal/wirecodec"
)

// Wire codecs for the transport's own frames. Every stream carries
// self-contained wirecodec frames, so a reconnecting link has no
// encoder state to resynchronise and a frame captured in the journal
// is byte-identical to the frame on the wire.
//
// IDs +2 (tcp envelope), +4 (recovery hello) and +5 (mux hello) belonged
// to the per-stack frames the one link layer replaced, and +3 to the
// recovery envelope the recovering mux replaced; wirecodec retires them,
// so a peer from such a build gets a typed refusal, not a misparse.

func init() {
	wirecodec.Register(wirecodec.IDRangeTransport, "echo digest vector",
		[]any{echoMsg{}},
		func(dst []byte, v any) ([]byte, error) {
			ds := v.(echoMsg).Digests
			dst = wirecodec.AppendU32(dst, uint32(len(ds)))
			for _, d := range ds {
				dst = wirecodec.AppendBytes(dst, d)
			}
			return dst, nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			n := r.Count(4)
			ds := make([][]byte, 0, n)
			for i := 0; i < n; i++ {
				ds = append(ds, r.Bytes())
			}
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("transport: echo message: %w", err)
			}
			return echoMsg{Digests: ds}, nil
		})

	wirecodec.Register(wirecodec.IDRangeTransport+1, "corruption marker",
		[]any{Corrupted{}},
		func(dst []byte, v any) ([]byte, error) {
			return wirecodec.AppendI64(dst, int64(v.(Corrupted).Round)), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			c := Corrupted{Round: r.Int()}
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("transport: corruption marker: %w", err)
			}
			return c, nil
		})

	wirecodec.Register(wirecodec.IDRangeTransport+6, "mux envelope",
		[]any{muxEnv{}},
		func(dst []byte, v any) ([]byte, error) {
			e := v.(muxEnv)
			dst = wirecodec.AppendString(dst, e.SID)
			dst = wirecodec.AppendU8(dst, e.Kind)
			dst = wirecodec.AppendI64(dst, int64(e.Round))
			dst = wirecodec.AppendI64(dst, int64(e.Bytes))
			dst = wirecodec.AppendU64(dst, e.Seq)
			return wirecodec.AppendValue(dst, e.Payload)
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			var e muxEnv
			e.SID = r.String()
			e.Kind = r.U8()
			e.Round = r.Int()
			e.Bytes = r.Int()
			e.Seq = r.U64()
			e.Payload = r.Value()
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("transport: mux envelope: %w", err)
			}
			return e, nil
		})

	wirecodec.Register(wirecodec.IDRangeTransport+7, "link hello",
		[]any{hello{}},
		func(dst []byte, v any) ([]byte, error) {
			h := v.(hello)
			dst = wirecodec.AppendI64(dst, int64(h.Party))
			dst = wirecodec.AppendI64(dst, int64(h.Epoch))
			return wirecodec.AppendString(dst, h.Mesh), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			h := hello{Party: r.Int(), Epoch: r.Int(), Mesh: r.String()}
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("transport: hello: %w", err)
			}
			return h, nil
		})
}
