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

// buildRecoveryMesh starts an n-party recovery mesh with the given blame
// grace (0 = the default), closed at test cleanup.
func buildRecoveryMesh(t *testing.T, n int, grace time.Duration) ([]string, []*TCPFabric) {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs, formMeshOn(t, addrs, func(addrs []string, me int) (*TCPFabric, error) {
		return OpenTCPFabric(addrs, me, 5*time.Second, MuxOptions{Recovery: &MuxRecovery{Epoch: 1, Grace: grace}}, "test-session", newMemJournal())
	})
}

func TestRecoveringMeshSendRecv(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 3, 0)
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
	// Stats count logical sends only, never heartbeats or resume frames.
	s := fabrics[0].Stats()
	if s.MessagesSent[0] != 2 {
		t.Fatalf("party 0 stats: %d messages, want 2", s.MessagesSent[0])
	}
}

// TestRecoveringReconnect severs the live connection under the mux
// and checks the link heals: messages sent while it is down wait in the
// sender's journal, the receiver's resume request fetches them, and the
// protocol never notices.
func TestRecoveringReconnect(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, 0)

	if err := fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "before"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 1); err != nil || got.(wirePayload).Text != "before" {
		t.Fatalf("before sever: %v, %v", got, err)
	}

	// Sever the link out from under both endpoints, repeatedly.
	for round := 2; round < 6; round++ {
		if conn := fabrics[0].m.link.conn(1); conn != nil {
			conn.Close()
		}
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

// TestRecoveringDuplicateSuppression writes raw frames onto the link,
// as a redial race or an over-eager retransmission would: a frame below
// the receiver's cursor is dropped, one ahead of it waits in the reorder
// stash until the gap fills, and an unsequenced frame is a desync.
func TestRecoveringDuplicateSuppression(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, 0)

	if err := fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "first"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 1); err != nil || got.(wirePayload).Text != "first" {
		t.Fatalf("first: %v, %v", got, err)
	}

	inject := func(round int, seq uint64, text string) {
		t.Helper()
		env := muxEnv{SID: fabrics[0].SID(), Kind: muxKindData, Round: round, Bytes: 16, Seq: seq, Payload: wirePayload{Text: text}}
		if err := fabrics[0].m.link.write(1, round, time.Second, env); err != nil {
			t.Fatal(err)
		}
	}
	inject(1, 1, "dup")    // seq 1 again: already consumed
	inject(3, 3, "third")  // ahead of the cursor
	inject(2, 2, "second") // fills the gap
	for _, want := range []struct {
		round int
		text  string
	}{{2, "second"}, {3, "third"}} {
		got, err := fabrics[1].RecvCtx(context.Background(), 1, 0, want.round)
		if err != nil {
			t.Fatal(err)
		}
		if got.(wirePayload).Text != want.text {
			t.Fatalf("round %d: got %#v, want %q (a duplicate was delivered or the stash lost order)", want.round, got, want.text)
		}
	}

	inject(4, 0, "unsequenced")
	if _, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 4); !errors.Is(err, ErrDesync) {
		t.Fatalf("after an unsequenced frame: %v, want ErrDesync", err)
	}
}

// TestRecoveringAckTrimming pins Drain's contract, which the peers'
// cursor reports drive: a party still waiting on a peer's final cursor
// gives up at its bound, and one whose peer reports returns true as
// soon as the report lands.
//
// Party 1 takes its ten frames only after the first Drain has given up:
// the resume requests its session sends at open and on each link
// attach read its cursor when their goroutine runs, so one that ran
// after the receives would truthfully report all ten frames.
func TestRecoveringAckTrimming(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, 0)
	for i := 0; i < 10; i++ {
		if err := fabrics[0].Send(1, 0, 1, 16, wirePayload{Text: "m"}); err != nil {
			t.Fatal(err)
		}
	}

	// Party 1 has received nothing, so no report of its covers a frame.
	start := time.Now()
	if fabrics[0].Drain(200 * time.Millisecond) {
		t.Fatal("Drain returned true although party 1 never reported its cursor")
	}
	if waited := time.Since(start); waited < 200*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("Drain gave up after %v, want its 200ms bound", waited)
	}
	for i := 0; i < 10; i++ {
		if _, err := fabrics[1].RecvCtx(context.Background(), 1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}

	drained := make(chan bool, 1)
	go func() { drained <- fabrics[0].Drain(10 * time.Second) }()
	time.Sleep(50 * time.Millisecond)
	// Party 1 finishes: its Drain reports holding all ten frames (and
	// returns at once, having sent nothing).
	if !fabrics[1].Drain(time.Second) {
		t.Fatal("party 1, which sent nothing, did not drain")
	}
	reported := time.Now()
	select {
	case ok := <-drained:
		if !ok {
			t.Fatal("Drain returned false after party 1 reported all ten frames")
		}
		if lag := time.Since(reported); lag > time.Second {
			t.Fatalf("Drain returned %v after the report", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never saw party 1's final cursor")
	}
}

// TestRecoveringBlameAfterGrace: a peer that disconnects and stays away
// past the grace window is blamed with ErrPeerDown; one that reconnects
// inside the window is not.
func TestRecoveringBlameAfterGrace(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, fabrics := buildRecoveryMesh(t, 2, 300*time.Millisecond)

	// Reconnect inside the window: no blame. Party 1 "crashes" and a
	// replacement endpoint (epoch 2) comes back before grace runs out.
	fabrics[1].Close()
	time.Sleep(50 * time.Millisecond)
	replacement, err := OpenTCPFabric(addrs, 1, 5*time.Second,
		MuxOptions{Recovery: &MuxRecovery{Epoch: 2, Grace: 300 * time.Millisecond}}, "test-session", newMemJournal())
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
// ordinary receive timeout, never the peer-down blame, on the
// recovering fabric and on a daemon's recovering mux alike. The wait
// outlasts the liveness window, so only the heartbeats keep the read
// deadline from taking the connection down: the link must still be the
// one it was, with a heartbeat round trip measured.
func TestRecoveringSlowIsNotDead(t *testing.T) {
	const timeout = livenessWindow + 500*time.Millisecond
	const grace = 100 * time.Millisecond // shorter than the timeout: blame would win if mis-assigned
	rows := map[string]func(addrs []string, me int) (stackEnd, error){
		"recovering": func(addrs []string, me int) (stackEnd, error) {
			return OpenTCPFabric(addrs, me, timeout, MuxOptions{Recovery: &MuxRecovery{Epoch: 1, Grace: grace}}, "slow", newMemJournal())
		},
		"mux recovering": func(addrs []string, me int) (stackEnd, error) {
			m, err := NewSessionMux(addrs, me, timeout, MuxOptions{Recovery: &MuxRecovery{Epoch: 1, Grace: grace}})
			if err != nil {
				return nil, err
			}
			s, err := m.OpenRecovering("slow", 0, newMemJournal())
			return muxEnd{s, m}, err
		},
	}
	leakcheck.Check(t)
	// The rows wait side by side: each takes the full timeout.
	var wg sync.WaitGroup
	for name, build := range rows {
		name, ends := name, formMesh(t, 2, build)
		wg.Add(1)
		go func() {
			defer wg.Done()
			link := linkOf(ends[0])
			conn := link.conn(1)
			_, err := ends[0].RecvCtx(context.Background(), 0, 1, 1)
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("%s: silent-but-alive peer: got %v, want ErrTimeout", name, err)
			}
			if link.conn(1) != conn {
				t.Errorf("%s: the link to the silent peer was dropped and redialed while its heartbeats flowed", name)
			}
			if h := ends[0].Health()[0]; h.HeartbeatRTTMS <= 0 {
				t.Errorf("%s: no heartbeat round trip measured: %+v", name, h)
			}
		}()
	}
	wg.Wait()
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
	mk := func(me, epoch int, j Journaler) (*TCPFabric, error) {
		return OpenTCPFabric(addrs, me, 5*time.Second, MuxOptions{Recovery: &MuxRecovery{Epoch: epoch, Grace: 5 * time.Second}}, "replay", j)
	}
	var survivor, victim *TCPFabric
	var serr, verr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); survivor, serr = mk(0, 1, newMemJournal()) }()
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
	bad, err := mk(1, 3, journal2)
	if err != nil {
		t.Fatalf("divergence fixture: %v", err)
	}
	defer bad.Close()
	if err := bad.Send(9, 1, 0, 16, wirePayload{Text: "m1"}); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("divergent replay: %v, want ErrReplayDiverged", err)
	}
}

// TestRecoveringSessionMismatch: a connection announcing another
// session's mesh tag is closed without a reply, and the genuine link
// carries on untouched.
func TestRecoveringSessionMismatch(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, 0)
	link := fabrics[0].m.link
	conn, err := net.Dial("tcp", link.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wirecodec.WriteValue(conn, hello{Party: 1, Epoch: 1, Mesh: "session/another-session"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if v, err := wirecodec.ReadValue(bufio.NewReader(conn)); err == nil {
		t.Fatalf("a foreign session's hello was answered: %+v", v)
	}
	if err := fabrics[1].Send(1, 1, 0, 16, wirePayload{Text: "still-alive"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[0].RecvCtx(context.Background(), 0, 1, 1); err != nil || got.(wirePayload).Text != "still-alive" {
		t.Fatalf("genuine link after the foreign hello: %v, %v", got, err)
	}
}

// TestRecoveringStaleEpochRejected: a handshake carrying an older epoch
// than the link has already seen is a leftover from before a restart
// and must be refused.
func TestRecoveringStaleEpochRejected(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, 0)
	// Bump the known epoch for party 1 on party 0's link, then replay a
	// stale epoch-1 handshake by hand.
	link := fabrics[0].m.link
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
	_, fabrics := buildRecoveryMesh(t, 2, 0)
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
