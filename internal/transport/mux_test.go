package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/telemetry"
)

// muxMesh builds an n-daemon mux mesh over loopback, closed at test
// cleanup.
func muxMesh(t *testing.T, n int, optsFor func(i int) MuxOptions) []*SessionMux {
	t.Helper()
	return formMesh(t, n, func(addrs []string, me int) (*SessionMux, error) {
		return NewSessionMux(addrs, me, 5*time.Second, optsFor(me))
	})
}

// openAll opens sid on every endpoint of the mesh.
func openAll(t *testing.T, muxes []*SessionMux, sid string) []*MuxSession {
	t.Helper()
	out := make([]*MuxSession, len(muxes))
	for i, m := range muxes {
		s, err := m.Open(sid, 0)
		if err != nil {
			t.Fatalf("open %q on %d: %v", sid, i, err)
		}
		out[i] = s
	}
	return out
}

// ringPass sends one tagged integer around the ring and checks every
// hop sees the session-specific value.
func ringPass(t *testing.T, sess []*MuxSession, base int) {
	t.Helper()
	n := len(sess)
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := (i + 1) % n
			prev := (i + n - 1) % n
			if err := sess[i].Send(7, i, next, 8, base+i); err != nil {
				errCh <- fmt.Errorf("party %d send: %w", i, err)
				return
			}
			v, err := sess[i].RecvCtx(context.Background(), i, prev, 7)
			if err != nil {
				errCh <- fmt.Errorf("party %d recv: %w", i, err)
				return
			}
			if got, want := v.(int), base+prev; got != want {
				errCh <- fmt.Errorf("party %d got %d, want %d", i, got, want)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// Two sessions ride the same mesh concurrently; the telemetry link
// counter proves exactly one connection per peer pair was ever made.
func TestMuxSessionsShareOneLink(t *testing.T) {
	defer leakcheck.Check(t)
	// Only party 0 gets the registry: the link counters are per
	// endpoint, and sharing one registry across parties would conflate
	// their views of "peer".
	reg := telemetry.NewRegistry()
	muxes := muxMesh(t, 3, func(i int) MuxOptions {
		if i == 0 {
			return MuxOptions{Telemetry: reg}
		}
		return MuxOptions{}
	})
	a := openAll(t, muxes, "sess-a")
	b := openAll(t, muxes, "sess-b")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ringPass(t, a, 100) }()
	go func() { defer wg.Done(); ringPass(t, b, 200) }()
	wg.Wait()
	for _, s := range append(a, b...) {
		s.Close()
	}
	// Party 0 accepted exactly one connection from each higher peer.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{
		`mux_link_connects_total{peer="1"} 1`,
		`mux_link_connects_total{peer="2"} 1`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics missing %q:\n%s", want, dump)
		}
	}
}

// Frames sent into a session before the receiver opens it are buffered
// and replayed in order on Open.
func TestMuxPendingReplay(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s0, err := muxes[0].Open("early", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	for i := 0; i < 3; i++ {
		if err := s0.Send(i, 0, 1, 4, 10+i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Give the frames time to land in the pending buffer, then open.
	time.Sleep(50 * time.Millisecond)
	s1, err := muxes[1].Open("early", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	for i := 0; i < 3; i++ {
		v, err := s1.RecvCtx(context.Background(), 1, 0, i)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if v.(int) != 10+i {
			t.Fatalf("recv %d: got %v", i, v)
		}
	}
}

// awaitQueued blocks until s holds n frames from peer in its receive
// queue, so a test can force "the frame was already there".
func awaitQueued(t *testing.T, s *MuxSession, peer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inbox[peer]) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames from party %d queued", len(s.inbox[peer]), n, peer)
		}
		time.Sleep(time.Millisecond)
	}
}

// Closing (or abandoning) one session must not disturb another on the
// same link: session A closes with a frame still queued, B completes.
// And the closed session's queue is discarded: a session closed locally
// answers ErrClosed before it looks at its queue.
func TestMuxCloseIsolation(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 3, func(int) MuxOptions { return MuxOptions{} })
	a := openAll(t, muxes, "doomed")
	b := openAll(t, muxes, "survivor")
	// A frame for A is delivered and sits in its queue; then A dies
	// everywhere.
	if err := a[0].Send(1, 0, 1, 4, 1); err != nil {
		t.Fatal(err)
	}
	awaitQueued(t, a[1], 0, 1)
	for _, s := range a {
		s.Close()
	}
	ringPass(t, b, 300)
	for _, s := range b {
		s.Close()
	}
	// Receives on the closed session fail with ErrClosed, typed.
	_, err := a[1].RecvCtx(context.Background(), 1, 0, 1)
	var abort *AbortError
	if !errors.As(err, &abort) || !errors.Is(err, ErrClosed) {
		t.Fatalf("closed-session recv: got %v, want AbortError/ErrClosed", err)
	}
}

// The mirror case: a PEER (or link) failure after a frame was queued
// still delivers the frame, like buffered TCP data before EOF; only the
// receive after it sees the failure.
func TestMuxPeerFailureDrainsQueue(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s := openAll(t, muxes, "s")
	if err := s[0].Send(1, 0, 1, 4, 41); err != nil {
		t.Fatal(err)
	}
	awaitQueued(t, s[1], 0, 1)
	muxes[0].Close() // the peer goes away: party 1's link to it dies
	deadline := time.Now().Add(5 * time.Second)
	for linkOf(muxEnd{s[1], muxes[1]}).conn(0) != nil {
		if time.Now().After(deadline) {
			t.Fatal("party 1 never noticed the dead link")
		}
		time.Sleep(time.Millisecond)
	}
	if v, err := s[1].RecvCtx(context.Background(), 1, 0, 1); err != nil || v != 41 {
		t.Fatalf("frame queued before the failure: got %v, %v", v, err)
	}
	_, err := s[1].RecvCtx(context.Background(), 1, 0, 2)
	if ae, ok := isAbort(err); !ok || ae.Party != 0 || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("receive after the drained queue = %v, want an abort naming party 0 with ErrPeerDown", err)
	}
}

// A frame that reached the pending buffer before its sender was blamed
// is still delivered when the session opens after the blame; only the
// receive after it sees the failure.
func TestMuxPendingReplayBeforeBlame(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s0, err := muxes[0].Open("late", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Send(1, 0, 1, 4, 41); err != nil {
		t.Fatal(err)
	}
	m := muxes[1]
	waitFor := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			m.mu.Lock()
			ok := done()
			m.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("party 1 never %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("buffered the frame", func() bool { return m.pending["late"] != nil && len(m.pending["late"].frames) == 1 })
	s0.Close()
	muxes[0].Close()
	waitFor("blamed party 0", func() bool { return m.linkErr[0] != nil })
	s1, err := m.Open("late", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if v, err := s1.RecvCtx(context.Background(), 1, 0, 1); err != nil || v != 41 {
		t.Fatalf("frame buffered before the blame: got %v, %v", v, err)
	}
	_, err = s1.RecvCtx(context.Background(), 1, 0, 2)
	if ae, ok := isAbort(err); !ok || ae.Party != 0 || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("receive after the replay = %v, want an abort naming party 0 with ErrPeerDown", err)
	}
}

// A session whose consumer stalls overflows its receive budget and is
// failed alone; the link and its sibling session keep working.
func TestMuxOverflowBudgetIsolation(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	slow := openAll(t, muxes, "slow")
	ok := openAll(t, muxes, "ok")
	// Flood the slow session past its muxQueueCap-frame budget; nobody
	// reads.
	for i := 0; i < muxQueueCap+32; i++ {
		if err := slow[0].Send(1, 0, 1, 4, i); err != nil {
			t.Fatalf("flood send %d: %v", i, err)
		}
	}
	// The sibling still works both ways.
	ringPass(t, ok, 400)
	// The slow session's receives from peer 0 eventually fail typed —
	// after draining the frames that fit the budget.
	deadline := time.After(5 * time.Second)
	for {
		_, err := slow[1].RecvCtx(context.Background(), 1, 0, -1)
		if err == nil {
			select {
			case <-deadline:
				t.Fatal("overflowed session never failed")
			default:
				continue
			}
		}
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("overflow error not typed: %v", err)
		}
		if !strings.Contains(err.Error(), "budget") {
			t.Fatalf("overflow error does not name the budget: %v", err)
		}
		break
	}
	for _, s := range append(slow, ok...) {
		s.Close()
	}
}

// Control frames bypass sessions and arrive on the control channel.
func TestMuxControlPlane(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	if err := muxes[0].SendControl(1, 42); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-muxes[1].Control():
		if msg.From != 0 || msg.Payload.(int) != 42 {
			t.Fatalf("control got %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never arrived")
	}
}

// A session id cannot be reused after close: late frames for its first
// life were dropped, so a second life would start with a hole.
func TestMuxSIDReuseRejected(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s, err := muxes[0].Open("once", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := muxes[0].Open("once", 0); err == nil {
		t.Fatal("reopening a closed sid succeeded")
	}
	if _, err := muxes[0].Open("", 0); err == nil {
		t.Fatal("empty sid accepted")
	}
}

// Duplicate mesh addresses are rejected at construction with the typed
// collision error naming both parties, on every fabric constructor.
func TestMeshAddrCollision(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = addrs[0]
	var collision *AddrCollisionError
	if _, err := NewTCPFabric(addrs, 0, time.Second); !errors.As(err, &collision) {
		t.Fatalf("NewTCPFabric: got %v, want AddrCollisionError", err)
	} else if collision.Parties != [2]int{0, 2} {
		t.Fatalf("collision parties = %v, want [0 2]", collision.Parties)
	}
	if _, err := NewSessionMux(addrs, 1, time.Second, MuxOptions{}); !errors.As(err, &collision) {
		t.Fatalf("NewSessionMux: got %v, want AddrCollisionError", err)
	}
	if _, err := OpenTCPFabric(addrs, 0, time.Second, MuxOptions{Recovery: &MuxRecovery{}}, "x", newMemJournal()); !errors.As(err, &collision) {
		t.Fatalf("OpenTCPFabric: got %v, want AddrCollisionError", err)
	}
	// Equivalent spellings collide too: wildcard vs explicit zero host,
	// localhost vs loopback IP.
	if err := validateMeshAddrs([]string{":9001", "0.0.0.0:9001"}); err == nil {
		t.Fatal("wildcard spellings not caught")
	}
	if err := validateMeshAddrs([]string{"localhost:9001", "127.0.0.1:9001"}); err == nil {
		t.Fatal("localhost aliasing not caught")
	}
	if err := validateMeshAddrs([]string{"hostA:9001", "hostB:9001"}); err != nil {
		t.Fatalf("distinct hosts, same port wrongly rejected: %v", err)
	}
}
