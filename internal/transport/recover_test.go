package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/wirecodec"
)

// memJournal is an in-memory Journaler for transport-level tests (the
// real durable implementation lives in internal/journal, which imports
// this package and so cannot be used here). Like the real one it
// refuses a send whose payload has no wire form.
type memJournal struct {
	mu   sync.Mutex
	sent map[int][]JournalMsg
	recv map[int][]JournalMsg
}

func newMemJournal() *memJournal {
	return &memJournal{sent: make(map[int][]JournalMsg), recv: make(map[int][]JournalMsg)}
}

func (m *memJournal) LogSend(peer, round, bytes int, seq uint64, payload any) error {
	if _, err := wirecodec.Marshal(payload); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent[peer] = append(m.sent[peer], JournalMsg{Round: round, Seq: seq, Bytes: bytes, Payload: payload})
	return nil
}

func (m *memJournal) LogRecv(peer, round, bytes int, seq uint64, payload any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recv[peer] = append(m.recv[peer], JournalMsg{Round: round, Seq: seq, Bytes: bytes, Payload: payload})
	return nil
}

func (m *memJournal) SentTo(peer int) ([]JournalMsg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]JournalMsg(nil), m.sent[peer]...), nil
}

func (m *memJournal) RecvFrom(peer int) ([]JournalMsg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]JournalMsg(nil), m.recv[peer]...), nil
}

// buildRecoveryMesh starts an n-party recovery mesh, closed at test
// cleanup; tweak customises each party's options before the fabrics
// dial.
func buildRecoveryMesh(t *testing.T, n int, tweak func(me int, o *RecoverOptions)) ([]string, []*RecoveringTCPFabric) {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs, formMeshOn(t, addrs, func(addrs []string, me int) (*RecoveringTCPFabric, error) {
		opts := RecoverOptions{SessionID: "test-session", Epoch: 1}
		if tweak != nil {
			tweak(me, &opts)
		}
		return NewRecoveringTCPFabric(addrs, me, 5*time.Second, opts)
	})
}

func TestRecoveringMeshSendRecv(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 3, nil)
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if to == from {
				continue
			}
			msg := wirePayload{From: from, Text: fmt.Sprintf("%d->%d", from, to)}
			if err := fabrics[from].Send(1, from, to, 16, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for to := 0; to < 3; to++ {
		for from := 0; from < 3; from++ {
			if to == from {
				continue
			}
			got, err := fabrics[to].RecvCtx(context.Background(), to, from, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p := got.(wirePayload); p.Text != fmt.Sprintf("%d->%d", from, to) {
				t.Fatalf("party %d from %d: got %#v", to, from, got)
			}
		}
	}
	// Stats count logical sends only, never heartbeats or acks.
	s := fabrics[0].Stats()
	if s.MessagesSent[0] != 2 {
		t.Fatalf("party 0 stats: %d messages, want 2", s.MessagesSent[0])
	}
}

// TestRecoveringReconnect severs the live connection and checks the
// link heals: messages sent while down are buffered and retransmitted,
// and the protocol never notices.
func TestRecoveringReconnect(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, nil)

	if err := fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "before"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 1); err != nil || got.(wirePayload).Text != "before" {
		t.Fatalf("before sever: %v, %v", got, err)
	}

	// Sever the link out from under both endpoints, repeatedly.
	for round := 2; round < 6; round++ {
		l := fabrics[0].links[1]
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
		text := fmt.Sprintf("after-sever-%d", round)
		if err := fabrics[0].Send(round, 0, 1, 16, wirePayload{Text: text}); err != nil {
			t.Fatal(err)
		}
		got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, round)
		if err != nil {
			t.Fatalf("round %d after sever: %v", round, err)
		}
		if got.(wirePayload).Text != text {
			t.Fatalf("round %d: got %#v", round, got)
		}
	}
}

// TestRecoveringDuplicateSuppression injects duplicate and in-order
// frames directly into the receive path: a frame below the expected
// sequence is dropped, the next expected one is delivered exactly once.
func TestRecoveringDuplicateSuppression(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, nil)

	if err := fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "first"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 1); err != nil || got.(wirePayload).Text != "first" {
		t.Fatalf("first: %v, %v", got, err)
	}

	// Replay seq 0 (already consumed) straight into party 1's frame
	// handler — the redial-race shape — then deliver seq 1 normally.
	l := fabrics[1].links[0]
	if !fabrics[1].handleFrame(l, renv{Kind: frameData, Round: 1, Seq: 0, Payload: wirePayload{Text: "dup"}}) {
		t.Fatal("duplicate frame must not kill the pump")
	}
	if !fabrics[1].handleFrame(l, renv{Kind: frameData, Round: 2, Seq: 1, Payload: wirePayload{Text: "second"}}) {
		t.Fatal("in-order frame must not kill the pump")
	}
	got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.(wirePayload).Text != "second" {
		t.Fatalf("duplicate was delivered: got %#v", got)
	}

	// A sequence gap, in contrast, is protocol corruption: fatal.
	if fabrics[1].handleFrame(l, renv{Kind: frameData, Round: 3, Seq: 40, Payload: wirePayload{}}) {
		t.Fatal("gap frame must kill the pump")
	}
	if _, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 3); !errors.Is(err, ErrDesync) {
		t.Fatalf("after gap: %v, want ErrDesync", err)
	}
}

// TestRecoveringAckTrimming: acks (piggybacked and heartbeat-carried)
// must drain the sender's retransmit buffer back to empty.
func TestRecoveringAckTrimming(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, func(me int, o *RecoverOptions) {
		o.Heartbeat = 20 * time.Millisecond
	})
	for i := 0; i < 10; i++ {
		if err := fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	l := fabrics[0].links[1]
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		n := len(l.buf)
		l.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("retransmit buffer never drained: %d frames still held", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoveringRetransmitOverflow: with the peer's link forced down,
// the bounded buffer eventually refuses new sends.
func TestRecoveringRetransmitOverflow(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, func(me int, o *RecoverOptions) {
		o.RetransmitLimit = 4
		o.Heartbeat = -1 // keep control traffic out of the way
	})
	// Close the receiving fabric entirely so acks stop.
	fabrics[1].Close()
	var overflow error
	for i := 0; i < 64 && overflow == nil; i++ {
		overflow = fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "m"})
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(overflow, ErrRetransmitOverflow) {
		t.Fatalf("got %v, want ErrRetransmitOverflow", overflow)
	}
	var abort *AbortError
	if !errors.As(overflow, &abort) || abort.Party != 1 {
		t.Fatalf("overflow must blame party 1: %v", overflow)
	}
}

// TestRecoveringBlameAfterGrace: a peer that disconnects and stays away
// past the grace window is blamed with ErrPeerDown; one that reconnects
// inside the window is not.
func TestRecoveringBlameAfterGrace(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, fabrics := buildRecoveryMesh(t, 2, func(me int, o *RecoverOptions) {
		o.Grace = 300 * time.Millisecond
	})

	// Reconnect inside the window: no blame. Party 1 "crashes" and a
	// replacement endpoint (epoch 2) comes back before grace runs out.
	fabrics[1].Close()
	time.Sleep(50 * time.Millisecond)
	replacement, err := NewRecoveringTCPFabric(addrs, 1, 5*time.Second, RecoverOptions{
		SessionID: "test-session", Epoch: 2, Grace: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("replacement endpoint: %v", err)
	}
	defer replacement.Close()
	if err := replacement.Send(1, 1, 0, 16, wirePayload{Text: "back"}); err != nil {
		t.Fatal(err)
	}
	got, err := fabrics[0].RecvCtx(context.Background(), 0, 1, 1)
	if err != nil {
		t.Fatalf("recv from reconnected peer: %v", err)
	}
	if got.(wirePayload).Text != "back" {
		t.Fatalf("got %#v", got)
	}

	// Now the peer goes away for good: blame after ~grace, well before
	// the 5s fabric timeout.
	replacement.Close()
	start := time.Now()
	_, err = fabrics[0].RecvCtx(context.Background(), 0, 1, 2)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("got %v, want ErrPeerDown", err)
	}
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Party != 1 {
		t.Fatalf("blame must name party 1: %v", err)
	}
	if elapsed < 250*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("blame after %v, want ≈ the 300ms grace window", elapsed)
	}
}

// TestRecoveringSlowIsNotDead: a connected-but-silent peer must hit the
// ordinary receive timeout, never the peer-down blame — heartbeats keep
// the link provably alive.
func TestRecoveringSlowIsNotDead(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*RecoveringTCPFabric, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for me := 0; me < 2; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			fabrics[me], errs[me] = NewRecoveringTCPFabric(addrs, me, 400*time.Millisecond, RecoverOptions{
				SessionID: "slow", Epoch: 1,
				Heartbeat: 50 * time.Millisecond,
				Grace:     100 * time.Millisecond, // shorter than the timeout: blame would win if mis-assigned
			})
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	defer func() {
		for _, f := range fabrics {
			f.Close()
		}
	}()
	_, err = fabrics[0].RecvCtx(context.Background(), 0, 1, 1)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("silent-but-alive peer: got %v, want ErrTimeout", err)
	}
}

// TestRecoveringJournalReplay is the crash-recovery core at transport
// level: party 1 runs half a session, crashes, and a restarted process
// replays its journal — re-issued sends are suppressed, journaled
// receives are served locally, and the surviving peer sees every
// logical message exactly once.
func TestRecoveringJournalReplay(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	journal := newMemJournal()
	mk := func(me, epoch int, j Journaler) (*RecoveringTCPFabric, error) {
		return NewRecoveringTCPFabric(addrs, me, 5*time.Second, RecoverOptions{
			SessionID: "replay", Epoch: epoch, Journal: j,
			Heartbeat: 25 * time.Millisecond, Grace: 5 * time.Second,
		})
	}
	var survivor, victim *RecoveringTCPFabric
	var serr, verr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); survivor, serr = mk(0, 1, nil) }()
	go func() { defer wg.Done(); victim, verr = mk(1, 1, journal) }()
	wg.Wait()
	if serr != nil || verr != nil {
		t.Fatalf("mesh: %v / %v", serr, verr)
	}
	defer func() { survivor.Close() }()

	// First life of party 1: send m1, receive m2, send m3 — all
	// journaled — then crash.
	if err := victim.Send(1, 1, 0, 16, wirePayload{Text: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := survivor.Send(2, 0, 1, 16, wirePayload{Text: "m2"}); err != nil {
		t.Fatal(err)
	}
	if got, err := victim.RecvCtx(context.Background(), 1, 0, 2); err != nil || got.(wirePayload).Text != "m2" {
		t.Fatalf("victim recv m2: %v, %v", got, err)
	}
	if err := victim.Send(3, 1, 0, 16, wirePayload{Text: "m3"}); err != nil {
		t.Fatal(err)
	}
	if got, err := survivor.RecvCtx(context.Background(), 0, 1, 1); err != nil || got.(wirePayload).Text != "m1" {
		t.Fatalf("survivor recv m1: %v, %v", got, err)
	}
	victim.Close() // crash

	// Second life: deterministic recomputation re-issues the exact same
	// operations against the journal.
	restarted, err := mk(1, 2, journal)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Close()
	if err := restarted.Send(1, 1, 0, 16, wirePayload{Text: "m1"}); err != nil {
		t.Fatalf("replayed send m1: %v", err)
	}
	if got, err := restarted.RecvCtx(context.Background(), 1, 0, 2); err != nil || got.(wirePayload).Text != "m2" {
		t.Fatalf("journal-served recv m2: %v, %v", got, err)
	}
	if err := restarted.Send(3, 1, 0, 16, wirePayload{Text: "m3"}); err != nil {
		t.Fatalf("replayed send m3: %v", err)
	}
	// Past the journal: live traffic resumes in both directions.
	if err := restarted.Send(4, 1, 0, 16, wirePayload{Text: "m4"}); err != nil {
		t.Fatal(err)
	}
	if got, err := survivor.RecvCtx(context.Background(), 0, 1, 3); err != nil || got.(wirePayload).Text != "m3" {
		t.Fatalf("survivor recv m3: %v, %v", got, err)
	}
	if got, err := survivor.RecvCtx(context.Background(), 0, 1, 4); err != nil || got.(wirePayload).Text != "m4" {
		t.Fatalf("survivor recv m4: %v, %v", got, err)
	}
	if err := survivor.Send(5, 0, 1, 16, wirePayload{Text: "m5"}); err != nil {
		t.Fatal(err)
	}
	if got, err := restarted.RecvCtx(context.Background(), 1, 0, 5); err != nil || got.(wirePayload).Text != "m5" {
		t.Fatalf("restarted live recv m5: %v, %v", got, err)
	}
	// Stats parity: the restarted endpoint reports every logical send
	// in party 1's script (m1, m3, m4 — replayed or live), exactly as
	// an uninterrupted run of that script would.
	if s := restarted.Stats(); s.MessagesSent[1] != 3 {
		t.Fatalf("restarted stats: %d messages, want 3", s.MessagesSent[1])
	}

	// A divergent replay (wrong round ⇒ different flags or seed) must
	// surface ErrReplayDiverged, not silent corruption. Free party 1's
	// address first.
	restarted.Close()
	journal2 := newMemJournal()
	journal2.LogSend(0, 1, 16, 0, wirePayload{Text: "m1"})
	bad, err := NewRecoveringTCPFabric(addrs, 1, 5*time.Second, RecoverOptions{
		SessionID: "replay", Epoch: 3, Journal: journal2, Grace: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("divergence fixture: %v", err)
	}
	defer bad.Close()
	if err := bad.Send(9, 1, 0, 16, wirePayload{Text: "m1"}); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("divergent replay: %v, want ErrReplayDiverged", err)
	}
}

// TestRecoveringSessionMismatch: endpoints from different sessions must
// never mesh.
func TestRecoveringSessionMismatch(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]error, 2)
	var wg sync.WaitGroup
	for me := 0; me < 2; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := NewRecoveringTCPFabric(addrs, me, time.Second, RecoverOptions{
				SessionID:   fmt.Sprintf("session-%d", me),
				MeshTimeout: 500 * time.Millisecond,
			})
			if f != nil {
				f.Close()
			}
			results[me] = err
		}()
	}
	wg.Wait()
	for me, err := range results {
		if err == nil {
			t.Fatalf("party %d meshed across session IDs", me)
		}
	}
}

// TestRecoveringStaleEpochRejected: a handshake carrying an older epoch
// than the link has already seen is a leftover from before a restart
// and must be refused.
func TestRecoveringStaleEpochRejected(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, nil)
	// Bump the known epoch for party 1 on party 0's link, then replay a
	// stale epoch-1 handshake by hand.
	link := fabrics[0].mesh
	link.mu.Lock()
	link.peers[1].epoch = 5
	link.mu.Unlock()
	conn, err := net.Dial("tcp", link.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The accepter validates the hello before it replies, so rejection
	// shows up as the connection being closed without ever carrying a
	// frame — no hello back, and none of the traffic an accepted
	// connection would carry (its cursor ack at once, a heartbeat within
	// the default 250ms interval).
	if err := wirecodec.WriteValue(conn, hello{Party: 1, Epoch: 1, Mesh: link.tag}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if env, err := wirecodec.ReadValue(bufio.NewReader(conn)); err == nil {
		t.Fatalf("stale-epoch connection carried traffic: %+v", env)
	}
	// The genuine link is untouched by the stale intruder.
	if err := fabrics[1].Send(1, 1, 0, 16, wirePayload{Text: "still-alive"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[0].RecvCtx(context.Background(), 0, 1, 1); err != nil || got.(wirePayload).Text != "still-alive" {
		t.Fatalf("genuine link after stale handshake: %v, %v", got, err)
	}
}

// TestRecoveringCloseIdempotent: concurrent and repeated Close calls
// must be safe, including racing in-flight receives.
func TestRecoveringCloseIdempotent(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, nil)
	recvDone := make(chan error, 1)
	go func() {
		_, err := fabrics[0].RecvCtx(context.Background(), 0, 1, 1)
		recvDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); fabrics[0].Close() }()
	}
	wg.Wait()
	if err := <-recvDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight recv after Close: %v, want ErrClosed", err)
	}
	fabrics[0].Close() // and once more for good measure
}
