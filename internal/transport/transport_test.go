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

func TestStatsAndTrace(t *testing.T) {
	f, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 0, 1, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(2, 0, 2, 50, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(2, 1, 2, 25, nil); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.BytesSent[0] != 150 || s.BytesSent[1] != 25 || s.BytesSent[2] != 0 {
		t.Errorf("bytes: %v", s.BytesSent)
	}
	if s.MessagesSent[0] != 2 {
		t.Errorf("messages: %v", s.MessagesSent)
	}
	if s.MaxRound != 2 {
		t.Errorf("max round %d", s.MaxRound)
	}
	if s.TotalBytes() != 175 {
		t.Errorf("total bytes %d", s.TotalBytes())
	}
	tr := f.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0] != (Event{Round: 1, From: 0, To: 1, Bytes: 100}) {
		t.Errorf("trace[0] = %+v", tr[0])
	}
}

func TestWithoutTrace(t *testing.T) {
	f, err := New(2, WithoutTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, 0, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if len(f.Trace()) != 0 {
		t.Error("trace recorded despite WithoutTrace")
	}
	if f.Stats().BytesSent[0] != 1 {
		t.Error("stats must still be collected")
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
