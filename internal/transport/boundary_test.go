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
// sender's alone), and a frame carrying a retired type ID never gets
// past the receiver.

// unregistered is a payload type nobody gave a codec.
type unregistered struct{ X int }

// linkUp reports whether party 0's endpoint still considers its link to
// party 1 healthy.
func linkUp(e stackEnd) bool { return e.Health()[0].State == telemetry.StateConnected }

// TestEncodeFaultBlamesNobody: on every stack (and on the mux control
// lane), sending a value of an unregistered type fails at the sender
// with the codec's typed error — not an AbortError accusing the
// destination, not ErrPeerDown — and the link it was meant for carries
// the next, registered, send as if nothing had happened.
func TestEncodeFaultBlamesNobody(t *testing.T) {
	check := func(t *testing.T, send func(payload any) error, recv func(context.Context) (any, error), up func() bool) {
		err := send(unregistered{X: 1})
		if !errors.Is(err, wirecodec.ErrUnregisteredType) {
			t.Fatalf("send of an unregistered type = %v, want ErrUnregisteredType", err)
		}
		if ae, accused := isAbort(err); accused || errors.Is(err, ErrPeerDown) {
			t.Fatalf("local encode failure blamed the peer: %v (abort %+v)", err, ae)
		}
		if !up() {
			t.Fatal("local encode failure took the link down")
		}
		if err := send(wirePayload{Text: "after"}); err != nil {
			t.Fatalf("registered send after the encode failure: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		got, err := recv(ctx)
		if err != nil || got != (wirePayload{Text: "after"}) {
			t.Fatalf("receive after the encode failure: %#v, %v", got, err)
		}
	}
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		check(t,
			func(p any) error { return ends[0].Send(1, 0, 1, 8, p) },
			func(ctx context.Context) (any, error) { return ends[1].RecvCtx(ctx, 1, 0, 1) },
			func() bool { return linkUp(ends[0]) })
	})
	t.Run("mux control", func(t *testing.T) {
		leakcheck.Check(t)
		muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
		check(t,
			func(p any) error { return muxes[0].SendControl(1, p) },
			func(ctx context.Context) (any, error) {
				select {
				case msg := <-muxes[1].Control():
					return msg.Payload, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
			func() bool { return muxes[0].Health()[0].State == telemetry.StateConnected })
	})
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
	frame = binary.BigEndian.AppendUint16(frame, 1)
	frame = wirecodec.AppendBytes(frame, stream.Bytes()) // u32 length ‖ payload
	binary.BigEndian.PutUint32(frame[5:9], uint32(len(frame)-9))
	return frame
}

// TestLegacyGobFrameAbortsNamingSender: a peer that sends a well-formed
// envelope whose nested payload carries type ID 1 gets no gob decode
// and causes no panic — the receive fails with a typed abort naming it,
// carrying the codec's UnknownTypeError.
func TestLegacyGobFrameAbortsNamingSender(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		if _, err := linkOf(ends[0]).conn(1).Write(withLegacyPayload(t, s.frame)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		got, err := ends[1].RecvCtx(ctx, 1, 0, 1)
		ae, ok := isAbort(err)
		var unknown *wirecodec.UnknownTypeError
		if !ok || ae.Party != 0 || !errors.As(err, &unknown) || unknown.ID != 1 {
			t.Fatalf("receive of a type-ID-1 payload = %#v, %v; want an abort naming party 0 with UnknownTypeError{1}", got, err)
		}
	})
}

// TestRetiredRecoveryEnvelopeBlamedAtOnce is the mixed-build case: a
// recovering endpoint from before the recovering mux speaks the
// recovery envelope (type ID 83) on its session/<sid> link, opening
// every connection with an ack frame. The receiver has no codec for it,
// so the sender is blamed by name at once, not after the grace.
func TestRetiredRecoveryEnvelopeBlamedAtOnce(t *testing.T) {
	leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, time.Minute)
	// The ack as that build encoded it: kind 3, round, seq, bytes, ack,
	// heartbeat stamp and its echo, then a nil payload.
	body := wirecodec.AppendU8(nil, 3)
	for i := 0; i < 6; i++ {
		body = wirecodec.AppendU64(body, 0)
	}
	body, err := wirecodec.AppendValue(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint16([]byte{'G', 'W', wirecodec.Version}, wirecodec.IDRangeTransport+3)
	frame = wirecodec.AppendBytes(frame, body) // u32 length ‖ payload
	if err := fabrics[0].m.link.write(1, 1, time.Second, frame); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = fabrics[1].RecvCtx(context.Background(), 1, 0, 1)
	ae, ok := isAbort(err)
	var unknown *wirecodec.UnknownTypeError
	if !ok || ae.Party != 0 || !errors.Is(err, ErrPeerDown) || !errors.As(err, &unknown) || unknown.ID != wirecodec.IDRangeTransport+3 {
		t.Fatalf("receive after a recovery-envelope frame = %v; want an abort naming party 0 with UnknownTypeError{83}", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("blamed after %v: the retired frame waited out a grace", waited)
	}
}
