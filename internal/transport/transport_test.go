package transport

import (
	"context"
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
