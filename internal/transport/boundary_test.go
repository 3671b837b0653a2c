package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/telemetry"
	"groupranking/internal/wirecodec"
)

// The codec boundary, seen from both sides of every TCP-backed stack: a
// value without a codec never leaves the sender (and the failure is the
// sender's alone), and a frame carrying the retired gob-fallback type
// ID never gets past the receiver.

// unregistered is a payload type nobody gave a codec.
type unregistered struct{ X int }

// testLink is one direction (party 0 → party 1) of a two-party stack.
type testLink struct {
	send func(round int, payload any) error
	recv func(ctx context.Context, round int) (any, error)
	// up reports whether the sender still considers the link healthy.
	up func() bool
}

func netLink(a, b Net, up func() bool) testLink {
	return testLink{
		send: func(round int, p any) error { return a.Send(round, 0, 1, 8, p) },
		recv: func(ctx context.Context, round int) (any, error) { return b.RecvCtx(ctx, 1, 0, round) },
		up:   up,
	}
}

// TestEncodeFaultBlamesNobody: on every stack, sending a value of an
// unregistered type fails at the sender with the codec's typed error —
// not an AbortError accusing the destination, not ErrPeerDown — and the
// link it was meant for carries the next, registered, send as if
// nothing had happened.
func TestEncodeFaultBlamesNobody(t *testing.T) {
	defer leakcheck.Check(t)
	withJournal := func(_ int, o *RecoverOptions) { o.Journal = newMemJournal() }
	stacks := map[string]func(t *testing.T) testLink{
		"tcp": func(t *testing.T) testLink {
			f := buildMesh(t, 2)
			return netLink(f[0], f[1], func() bool { return f[0].Health()[0].State == telemetry.StateConnected })
		},
		"mux": func(t *testing.T) testLink {
			muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
			s := openAll(t, muxes, "s")
			return netLink(s[0], s[1], func() bool { return muxes[0].Health()[0].State == telemetry.StateConnected })
		},
		"mux control": func(t *testing.T) testLink {
			muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
			return testLink{
				send: func(_ int, p any) error { return muxes[0].SendControl(1, p) },
				recv: func(ctx context.Context, _ int) (any, error) {
					select {
					case msg := <-muxes[1].Control():
						return msg.Payload, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				},
				up: func() bool { return muxes[0].Health()[0].State == telemetry.StateConnected },
			}
		},
		"recovering": func(t *testing.T) testLink {
			_, f := buildRecoveryMesh(t, 2, nil)
			return netLink(f[0], f[1], f[0].allUp)
		},
		"recovering journaled": func(t *testing.T) testLink {
			_, f := buildRecoveryMesh(t, 2, withJournal)
			return netLink(f[0], f[1], f[0].allUp)
		},
		"mux recovering": func(t *testing.T) testLink {
			addrs, err := FreeLoopbackAddrs(2)
			if err != nil {
				t.Fatal(err)
			}
			muxes := recoveringMesh(t, addrs, []int{1, 1}, 10*time.Second)
			var s [2]*MuxSession
			for i, m := range muxes {
				t.Cleanup(m.Close)
				if s[i], err = m.OpenRecovering("s", 0, newMemJournal()); err != nil {
					t.Fatal(err)
				}
			}
			return netLink(s[0], s[1], func() bool { return muxes[0].Health()[0].State == telemetry.StateConnected })
		},
	}
	for name, build := range stacks {
		t.Run(name, func(t *testing.T) {
			l := build(t)
			err := l.send(1, unregistered{X: 1})
			if !errors.Is(err, wirecodec.ErrUnregisteredType) {
				t.Fatalf("send of an unregistered type = %v, want ErrUnregisteredType", err)
			}
			if ae, accused := IsAbort(err); accused || errors.Is(err, ErrPeerDown) {
				t.Fatalf("local encode failure blamed the peer: %v (abort %+v)", err, ae)
			}
			if !l.up() {
				t.Fatal("local encode failure took the link down")
			}
			if err := l.send(1, wirePayload{Text: "after"}); err != nil {
				t.Fatalf("registered send after the encode failure: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got, err := l.recv(ctx, 1)
			if err != nil || got != (wirePayload{Text: "after"}) {
				t.Fatalf("receive after the encode failure: %#v, %v", got, err)
			}
		})
	}
}

// withLegacyPayload returns outer's frame with its (nil) nested payload
// replaced by what version 1 of the format sent for a type without a
// codec: a type-ID-1 frame holding a gob stream. The result is a
// well-formed envelope in every other respect.
func withLegacyPayload(t testing.TB, outer any) []byte {
	t.Helper()
	frame, err := wirecodec.Marshal(outer)
	if err != nil {
		t.Fatal(err)
	}
	nilFrame, _ := wirecodec.Marshal(nil)
	if !bytes.HasSuffix(frame, nilFrame) {
		t.Fatalf("%T does not end in its nested payload", outer)
	}
	var v any = "hostile"
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(&v); err != nil {
		t.Fatal(err)
	}
	frame = frame[:len(frame)-len(nilFrame)]
	frame = append(frame, 'G', 'W', wirecodec.Version)
	frame = wirecodec.AppendU16(frame, 1)
	frame = wirecodec.AppendBytes(frame, stream.Bytes()) // u32 length ‖ payload
	binary.BigEndian.PutUint32(frame[5:9], uint32(len(frame)-9))
	return frame
}

// TestLegacyGobFrameAbortsNamingSender: a peer that sends a well-formed
// envelope whose nested payload carries type ID 1 gets no gob decode
// and causes no panic — the receive fails with a typed abort naming it,
// carrying the codec's UnknownTypeError.
func TestLegacyGobFrameAbortsNamingSender(t *testing.T) {
	defer leakcheck.Check(t)
	stacks := map[string]func(t *testing.T) (inject func([]byte) error, outer any, victim Net){
		"tcp": func(t *testing.T) (func([]byte) error, any, Net) {
			f := buildMesh(t, 2)
			return func(b []byte) error { _, err := f[0].conns[1].Write(b); return err },
				envelope{Round: 1, Bytes: 8}, f[1]
		},
		"mux": func(t *testing.T) (func([]byte) error, any, Net) {
			muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
			s := openAll(t, muxes, "s")
			return func(b []byte) error { _, err := muxes[0].conns[1].Write(b); return err },
				muxEnv{SID: "s", Kind: muxKindData, Round: 1, Bytes: 8}, s[1]
		},
		"recovering": func(t *testing.T) (func([]byte) error, any, Net) {
			_, f := buildRecoveryMesh(t, 2, nil)
			l := f[0].links[1]
			return func(b []byte) error {
				l.mu.Lock()
				defer l.mu.Unlock()
				_, err := l.conn.Write(b)
				return err
			}, renv{Kind: frameData, Round: 1, Bytes: 8}, f[1]
		},
	}
	for name, build := range stacks {
		t.Run(name, func(t *testing.T) {
			inject, outer, victim := build(t)
			if err := inject(withLegacyPayload(t, outer)); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got, err := victim.RecvCtx(ctx, 1, 0, 1)
			ae, ok := IsAbort(err)
			var unknown *wirecodec.UnknownTypeError
			if !ok || ae.Party != 0 || !errors.As(err, &unknown) || unknown.ID != 1 {
				t.Fatalf("receive of a type-ID-1 payload = %#v, %v; want an abort naming party 0 with UnknownTypeError{1}", got, err)
			}
		})
	}
}
