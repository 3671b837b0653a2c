package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/wirecodec"
)

// wirePayload is the scaffolding payload the TCP-stack tests send. It
// has no reflection fallback to ride: like any type that crosses a
// process boundary it registers a codec, from the test-only ID block
// (wirecodec.IDRangeTest; +0 wirePayload, +1 digestMsg, +2 digestOther).
type wirePayload struct {
	From int
	Text string
}

func init() {
	wirecodec.Register(wirecodec.IDRangeTest, "test payload", []any{wirePayload{}},
		func(dst []byte, v any) ([]byte, error) {
			p := v.(wirePayload)
			return wirecodec.AppendString(wirecodec.AppendI64(dst, int64(p.From)), p.Text), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			p := wirePayload{From: r.Int(), Text: r.String()}
			return p, r.Finish()
		})
}

// buildMesh starts an n-party TCP mesh on loopback and returns the
// endpoints.
func buildMesh(t *testing.T, n int) []*TCPFabric {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*TCPFabric, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			fabrics[me], errs[me] = NewTCPFabric(addrs, me, 5*time.Second)
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabrics {
			f.Close()
		}
	})
	return fabrics
}

func TestTCPMeshSendRecv(t *testing.T) {
	fabrics := buildMesh(t, 3)
	if err := fabrics[0].Send(1, 0, 2, 16, wirePayload{From: 0, Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	got, err := fabrics[2].RecvCtx(context.Background(), 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got.(wirePayload)
	if !ok || p.Text != "hello" {
		t.Fatalf("got %#v", got)
	}
}

func TestTCPOrderingPerSender(t *testing.T) {
	fabrics := buildMesh(t, 2)
	for i := 0; i < 50; i++ {
		if err := fabrics[0].Send(0, 0, 1, 4, wirePayload{From: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got.(wirePayload).From != i {
			t.Fatalf("message %d out of order", i)
		}
	}
}

func TestTCPBroadcastGather(t *testing.T) {
	const n = 4
	fabrics := buildMesh(t, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fabrics[me].Broadcast(1, me, 8, wirePayload{From: me}); err != nil {
				t.Error(err)
				return
			}
			all, err := fabrics[me].GatherAllCtx(context.Background(), me, -1)
			if err != nil {
				t.Error(err)
				return
			}
			for from := 0; from < n; from++ {
				if from == me {
					continue
				}
				if all[from].(wirePayload).From != from {
					t.Errorf("party %d slot %d wrong: %#v", me, from, all[from])
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPEndpointRestrictions(t *testing.T) {
	fabrics := buildMesh(t, 2)
	if err := fabrics[0].Send(0, 1, 0, 0, wirePayload{}); err == nil {
		t.Error("sending as another party accepted")
	}
	if _, err := fabrics[0].RecvCtx(context.Background(), 1, 0, -1); err == nil {
		t.Error("receiving as another party accepted")
	}
	if err := fabrics[0].Send(0, 0, 0, 0, wirePayload{}); err == nil {
		t.Error("self send accepted")
	}
}

func TestTCPTimeout(t *testing.T) {
	fabrics := buildMesh(t, 2)
	short := fabrics[0]
	short.timeout = 30 * time.Millisecond
	if _, err := short.RecvCtx(context.Background(), 0, 1, -1); err == nil {
		t.Error("expected timeout")
	}
}

func TestTCPStats(t *testing.T) {
	fabrics := buildMesh(t, 2)
	if err := fabrics[0].Send(7, 0, 1, 100, wirePayload{}); err != nil {
		t.Fatal(err)
	}
	s := fabrics[0].Stats()
	if len(s.MessagesSent) != 2 || len(s.BytesSent) != 2 {
		t.Fatalf("stats slices sized %d/%d, want 2/2", len(s.MessagesSent), len(s.BytesSent))
	}
	if s.MessagesSent[0] != 1 || s.BytesSent[0] != 100 {
		t.Errorf("own slot = %d msgs, %d bytes", s.MessagesSent[0], s.BytesSent[0])
	}
	if s.MessagesSent[1] != 0 || s.BytesSent[1] != 0 {
		t.Errorf("peer slot should be zero, got %d msgs, %d bytes", s.MessagesSent[1], s.BytesSent[1])
	}
	if s.MaxRound != 7 || s.DistinctRounds != 1 {
		t.Errorf("rounds: max %d, distinct %d", s.MaxRound, s.DistinctRounds)
	}
	if rs := s.PerRound[7]; rs.Messages != 1 || rs.Bytes != 100 {
		t.Errorf("per-round[7] = %+v", rs)
	}
}

func TestTCPClosedPeerSurfacesError(t *testing.T) {
	fabrics := buildMesh(t, 2)
	fabrics[1].Close()
	// Eventually the reader pump closes the inbox and Recv errors.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fabrics[0].timeout = 50 * time.Millisecond
		if _, err := fabrics[0].RecvCtx(context.Background(), 0, 1, -1); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("closed connection never surfaced")
		}
	}
}

func TestTCPConstructorValidation(t *testing.T) {
	if _, err := NewTCPFabric([]string{"127.0.0.1:0"}, 0, time.Second); err == nil {
		t.Error("single party accepted")
	}
	if _, err := NewTCPFabric([]string{"a", "b"}, 5, time.Second); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestFreeLoopbackAddrs(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
		if a == "" {
			t.Fatal("empty address")
		}
	}
	_ = fmt.Sprintf("%v", addrs)
}

// TestTCPCloseIdempotentAndGoroutineClean pins the teardown contract the
// abort paths rely on: Close may be called repeatedly and concurrently —
// including while receives are in flight — and when the dust settles no
// reader pump survives and pending receives have failed with ErrClosed
// rather than hanging.
func TestTCPCloseIdempotentAndGoroutineClean(t *testing.T) {
	leakcheck.Check(t)
	fabrics := buildMesh(t, 3)

	recvDone := make(chan error, 1)
	go func() {
		_, err := fabrics[0].RecvCtx(context.Background(), 0, 1, 7)
		recvDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive block

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fabrics[0].Close()
		}()
	}
	wg.Wait()
	fabrics[0].Close() // and once more after the storm

	select {
	case err := <-recvDone:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerDown) {
			t.Errorf("in-flight receive got %v, want ErrClosed or ErrPeerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight receive hung through Close")
	}
	// Sends into a closed endpoint must error, not panic or hang.
	if err := fabrics[0].Send(7, 0, 1, 1, wirePayload{From: 0, Text: "late"}); err == nil {
		t.Error("send after Close succeeded")
	}
	for _, f := range fabrics[1:] {
		f.Close()
	}
}
