package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	f, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 0, 2, 10, "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := f.RecvCtx(context.Background(), 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != "hello" {
		t.Errorf("got %v", got)
	}
}

func TestFIFOOrdering(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := f.Send(0, 0, 1, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := f.RecvCtx(context.Background(), 1, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got.(int) != i {
			t.Fatalf("message %d arrived out of order as %v", i, got)
		}
	}
}

func TestBroadcastAndGather(t *testing.T) {
	const n = 5
	f, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(2, 1, 8, "b"); err != nil {
		t.Fatal(err)
	}
	for to := 0; to < n; to++ {
		if to == 1 {
			continue
		}
		got, err := f.RecvCtx(context.Background(), to, 1, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got.(string) != "b" {
			t.Errorf("party %d got %v", to, got)
		}
	}

	// GatherAll from concurrent senders.
	var wg sync.WaitGroup
	for from := 1; from < n; from++ {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Send(3, from, 0, 4, from*10); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	all, err := GatherAll(context.Background(), f, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for from := 1; from < n; from++ {
		if all[from].(int) != from*10 {
			t.Errorf("slot %d = %v", from, all[from])
		}
	}
	if all[0] != nil {
		t.Error("self slot should be nil")
	}
}

// goneNet is a Fabric whose sends to the parties in gone fail the way a
// TCP mesh's do once the peer's link is down.
type goneNet struct {
	*Fabric
	gone map[int]bool
}

func (g goneNet) Send(round, from, to, bytes int, payload any) error {
	if g.gone[to] {
		return Abort(to, round, "", fmt.Errorf("%w: no connection to party %d", ErrPeerDown, to))
	}
	return g.Fabric.Send(round, from, to, bytes, payload)
}

func (g goneNet) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(g.N(), from, func(to int) error { return g.Send(round, from, to, bytes, payload) })
}

// A party that reaches a broadcast round late, after the party that
// failed and a survivor that aborted on it have both left, names the
// failed party: a leg that failed on a down peer is reported only after
// the round's receives, and the survivor's message is already here.
func TestEchoBroadcastNamesMissingSender(t *testing.T) {
	for _, tc := range []struct {
		name    string
		senders []int
		want    int
	}{
		{"one message missing", []int{1}, 2},
		{"every message in", []int{1, 2}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(3)
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range tc.senders {
				if err := f.Send(5, from, 0, 4, from); err != nil {
					t.Fatal(err)
				}
			}
			f.MarkDown(1)
			f.MarkDown(2)
			_, err = EchoBroadcastCtx(context.Background(), goneNet{f, map[int]bool{1: true, 2: true}}, 0, 5, 4, 0)
			if ae, ok := isAbort(err); !ok || ae.Party != tc.want || !errors.Is(err, ErrPeerDown) {
				t.Fatalf("got %v, want a peer-down abort naming party %d", err, tc.want)
			}
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	f, err := New(2, WithRecvTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := f.RecvCtx(context.Background(), 1, 0, -1); err == nil {
		t.Error("expected timeout error")
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("returned before the timeout window")
	}
}

func TestInvalidEndpoints(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ from, to int }{{-1, 0}, {0, 2}, {1, 1}}
	for _, c := range cases {
		if err := f.Send(0, c.from, c.to, 0, nil); err == nil {
			t.Errorf("Send(%d→%d) accepted", c.from, c.to)
		}
		if _, err := f.RecvCtx(context.Background(), c.to, c.from, -1); err == nil {
			t.Errorf("Recv(%d←%d) accepted", c.to, c.from)
		}
	}
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
}

func TestQueueFull(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queueCap; i++ {
		if err := f.Send(0, 0, 1, 1, nil); err != nil {
			t.Fatalf("send %d of %d: %v", i+1, queueCap, err)
		}
	}
	if err := f.Send(0, 0, 1, 1, nil); err == nil {
		t.Error("expected queue-full error")
	}
}

func TestConcurrentAllToAll(t *testing.T) {
	const n = 8
	f, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := 0; to < n; to++ {
				if to == p {
					continue
				}
				if err := f.Send(0, p, to, 1, p); err != nil {
					errs <- err
					return
				}
			}
			all, err := GatherAll(context.Background(), f, p, -1)
			if err != nil {
				errs <- err
				return
			}
			for from := 0; from < n; from++ {
				if from == p {
					continue
				}
				if all[from].(int) != from {
					errs <- fmt.Errorf("party %d: slot %d = %v", p, from, all[from])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
