package transport_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"groupranking/internal/netsim"
	"groupranking/internal/nettap"
	"groupranking/internal/transport"
)

// The fabric keeps no message trace of its own: these tests record
// through nettap.Recorder, the wrapper the trace consumers install.

func TestStatsAndTrace(t *testing.T) {
	f, err := transport.New(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := nettap.NewRecorder(f)
	if err := rec.Send(1, 0, 1, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Send(2, 0, 2, 50, nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Send(2, 1, 2, 25, nil); err != nil {
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
	tr := rec.Events()
	if len(tr) != 3 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0] != (netsim.Event{Round: 1, From: 0, To: 1, Bytes: 100}) {
		t.Errorf("trace[0] = %+v", tr[0])
	}
}

func TestSubViewMapsIndicesAndRounds(t *testing.T) {
	f, err := transport.New(5)
	if err != nil {
		t.Fatal(err)
	}
	rec := nettap.NewRecorder(f)
	// View of parties {1, 3, 4} as {0, 1, 2}, rounds shifted by 100.
	sv, err := transport.NewSubView(rec, []int{1, 3, 4}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sv.N() != 3 {
		t.Fatalf("N = %d", sv.N())
	}
	if err := sv.Send(2, 0, 2, 9, "x"); err != nil {
		t.Fatal(err)
	}
	got, err := sv.RecvCtx(context.Background(), 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != "x" {
		t.Errorf("payload %v", got)
	}
	// The parent must see the mapped endpoints and shifted round.
	tr := rec.Events()
	if len(tr) != 1 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0] != (netsim.Event{Round: 102, From: 1, To: 4, Bytes: 9}) {
		t.Errorf("trace event %+v", tr[0])
	}
}

// TestConcurrentSendRecvMarkDown hammers one fabric from many
// goroutines — senders, receivers and a crash marker — to give the race
// detector surface area over the queue, down-channel and stats paths,
// and over a Recorder's event list.
func TestConcurrentSendRecvMarkDown(t *testing.T) {
	const n, msgs = 4, 64
	fab, err := transport.New(n, transport.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rec := nettap.NewRecorder(fab)
	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			from, to := from, to
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if err := rec.Send(i, from, to, 8, i); err != nil {
						t.Errorf("send %d→%d: %v", from, to, err)
						return
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if _, err := fab.RecvCtx(context.Background(), to, from, i); err != nil {
						// The concurrent MarkDown below may race ahead of
						// the last few receives; peer-down is the one
						// acceptable failure.
						if errors.Is(err, transport.ErrPeerDown) {
							return
						}
						t.Errorf("recv %d←%d: %v", to, from, err)
						return
					}
				}
			}()
		}
	}
	// Concurrent stats and trace readers and a late MarkDown exercise
	// the remaining shared state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			fab.Stats()
			rec.Events()
		}
	}()
	wg.Wait()
	if got := len(rec.Events()); got != n*(n-1)*msgs {
		t.Errorf("recorded %d events, want %d", got, n*(n-1)*msgs)
	}
	fab.MarkDown(2)
	if _, err := fab.RecvCtx(context.Background(), 0, 2, 999); !errors.Is(err, transport.ErrPeerDown) {
		t.Errorf("post-run receive from downed party: %v", err)
	}
}
