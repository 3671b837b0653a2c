package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/wirecodec"
)

// recoveringMesh forms an n-daemon recovering mux mesh on fixed addrs,
// closed at test cleanup.
func recoveringMesh(t *testing.T, addrs []string, epochs []int, grace time.Duration) []*SessionMux {
	t.Helper()
	return formMeshOn(t, addrs, func(addrs []string, me int) (*SessionMux, error) {
		return NewSessionMux(addrs, me, 5*time.Second,
			MuxOptions{Recovery: &MuxRecovery{Epoch: epochs[me], Grace: grace}})
	})
}

// A recovering mesh behaves like a plain one when nothing fails: a
// journal-backed session ring-passes and every frame lands in the
// journals with contiguous sequence numbers.
func TestMuxRecoveringRingJournals(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatalf("addrs: %v", err)
	}
	muxes := recoveringMesh(t, addrs, []int{1, 1, 1}, 10*time.Second)
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
	}()
	jrs := make([]*memJournal, 3)
	sess := make([]*MuxSession, 3)
	for i, m := range muxes {
		jrs[i] = newMemJournal()
		s, err := m.OpenRecovering("ring", 0, jrs[i])
		if err != nil {
			t.Fatalf("open recovering on %d: %v", i, err)
		}
		sess[i] = s
	}
	ringPass(t, sess, 100)
	for i := range sess {
		next := (i + 1) % 3
		sent, _ := jrs[i].SentTo(next)
		if len(sent) != 1 || sent[0].Seq != 1 || sent[0].Round != 7 {
			t.Fatalf("party %d journaled sends to %d: %+v", i, next, sent)
		}
		prev := (i + 2) % 3
		recv, _ := jrs[i].RecvFrom(prev)
		if len(recv) != 1 || recv[0].Seq != 1 {
			t.Fatalf("party %d journaled recvs from %d: %+v", i, prev, recv)
		}
	}
	for _, s := range sess {
		s.Close()
	}
}

// The tentpole property at the transport layer: an endpoint dies
// mid-session (its daemon restarts at a new epoch, same journals) and
// the session resumes to the exact same frame stream — journaled
// receives replay first, the peer's outage-window sends arrive by
// resume retransmission, replayed sends are suppressed, and fresh
// traffic flows both ways afterwards.
func TestMuxRecoveringRestartResumes(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatalf("addrs: %v", err)
	}
	muxes := recoveringMesh(t, addrs, []int{1, 1}, 10*time.Second)
	m0, m1 := muxes[0], muxes[1]
	defer m0.Close()
	j0, j1 := newMemJournal(), newMemJournal()
	s0, err := m0.OpenRecovering("job", 0, j0)
	if err != nil {
		t.Fatalf("open on 0: %v", err)
	}
	s1, err := m1.OpenRecovering("job", 0, j1)
	if err != nil {
		t.Fatalf("open on 1: %v", err)
	}

	// Rounds 1..5 in both directions while everything is healthy.
	for r := 1; r <= 5; r++ {
		if err := s0.Send(r, 0, 1, 8, 100+r); err != nil {
			t.Fatalf("s0 send round %d: %v", r, err)
		}
		if v, err := s1.RecvCtx(context.Background(), 1, 0, r); err != nil || v.(int) != 100+r {
			t.Fatalf("s1 recv round %d: %v %v", r, v, err)
		}
		if err := s1.Send(r, 1, 0, 8, 200+r); err != nil {
			t.Fatalf("s1 send round %d: %v", r, err)
		}
		if v, err := s0.RecvCtx(context.Background(), 0, 1, r); err != nil || v.(int) != 200+r {
			t.Fatalf("s0 recv round %d: %v %v", r, v, err)
		}
	}

	// Party 1 "crashes": its whole mux goes away. Party 0 keeps
	// sending rounds 6..8 into the outage — the writes land in the
	// journal and must NOT error (the journal is the retransmit
	// buffer).
	m1.Close()
	time.Sleep(50 * time.Millisecond)
	for r := 6; r <= 8; r++ {
		if err := s0.Send(r, 0, 1, 8, 100+r); err != nil {
			t.Fatalf("s0 send during outage round %d: %v", r, err)
		}
	}

	// Party 1 restarts: a new mux at epoch 2 on the same address,
	// re-adopting the session from the same journal.
	m1b, err := NewSessionMux(addrs, 1, 5*time.Second,
		MuxOptions{Recovery: &MuxRecovery{Epoch: 2, Grace: 10 * time.Second}})
	if err != nil {
		t.Fatalf("restarting mux 1: %v", err)
	}
	defer m1b.Close()
	s1b, err := m1b.OpenRecovering("job", 0, j1)
	if err != nil {
		t.Fatalf("re-adopt on 1: %v", err)
	}

	// Party 1 re-executes its script from the top: rounds 1..5 replay
	// from the journal (and the re-sends are suppressed), rounds 6..8
	// arrive via resume retransmission from party 0's journal.
	for r := 1; r <= 8; r++ {
		v, err := s1b.RecvCtx(context.Background(), 1, 0, r)
		if err != nil {
			t.Fatalf("s1b recv round %d: %v", r, err)
		}
		if v.(int) != 100+r {
			t.Fatalf("s1b recv round %d: got %v, want %d", r, v, 100+r)
		}
		if r <= 5 {
			if err := s1b.Send(r, 1, 0, 8, 200+r); err != nil {
				t.Fatalf("s1b replayed send round %d: %v", r, err)
			}
		}
	}
	// Fresh post-restart traffic in both directions.
	if err := s1b.Send(9, 1, 0, 8, 209); err != nil {
		t.Fatalf("s1b live send: %v", err)
	}
	if v, err := s0.RecvCtx(context.Background(), 0, 1, 9); err != nil || v.(int) != 209 {
		t.Fatalf("s0 recv round 9: %v %v", v, err)
	}
	if err := s0.Send(10, 0, 1, 8, 110); err != nil {
		t.Fatalf("s0 live send: %v", err)
	}
	if v, err := s1b.RecvCtx(context.Background(), 1, 0, 10); err != nil || v.(int) != 110 {
		t.Fatalf("s1b recv round 10: %v %v", v, err)
	}
	// The sequence numbers journaled on the restarted side must be the
	// contiguous continuation of the pre-crash life.
	recv, _ := j1.RecvFrom(0)
	for i, msg := range recv {
		if msg.Seq != uint64(i+1) {
			t.Fatalf("journaled recv %d has seq %d", i, msg.Seq)
		}
	}
	if len(recv) != 9 {
		t.Fatalf("journaled recvs after resume: %d, want 9", len(recv))
	}
	s0.Close()
	s1b.Close()
}

// A link outage that outlives the grace blames the peer: blocked
// receives fail with the typed ErrPeerDown abort naming the party, and
// sessions opened while the peer is gone see the same once their wait
// crosses the grace.
func TestMuxRecoveringGraceBlame(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatalf("addrs: %v", err)
	}
	muxes := recoveringMesh(t, addrs, []int{1, 1}, 300*time.Millisecond)
	m0, m1 := muxes[0], muxes[1]
	defer m0.Close()
	j0 := newMemJournal()
	s0, err := m0.OpenRecovering("doomed", 5*time.Second, j0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m1.Close()
	start := time.Now()
	_, err = s0.RecvCtx(context.Background(), 0, 1, 1)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("recv after grace: %v, want ErrPeerDown", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Party != 1 {
		t.Fatalf("blame does not name party 1: %v", err)
	}
	if waited := time.Since(start); waited < 250*time.Millisecond {
		t.Fatalf("blamed after only %v, inside the grace", waited)
	}
	s0.Close()
}

// Hostile bytes on a recovering mux's lifetime listener must not
// disturb the mesh: a garbage handshake is dropped, and a session
// started afterwards still flows.
func TestMuxRecoveringHostileAccept(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatalf("addrs: %v", err)
	}
	muxes := recoveringMesh(t, addrs, []int{1, 1}, 10*time.Second)
	m0, m1 := muxes[0], muxes[1]
	defer m0.Close()
	defer m1.Close()

	// Garbage pre-hello bytes at party 0's listener.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("hostile dial: %v", err)
	}
	conn.Write([]byte("\xff\xff\xff\xffnot a wirecodec frame at all"))
	conn.Close()

	// A self-declared "party 1" whose first frame is garbage: the link
	// replacement is dropped once the frame fails to decode, and the
	// real dialer re-attaches on its own.
	conn2, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("hostile dial 2: %v", err)
	}
	if err := wirecodec.WriteValue(conn2, hello{Party: 1, Epoch: 1, Mesh: "mux"}); err != nil {
		t.Fatalf("hostile hello: %v", err)
	}
	conn2.Write([]byte("\x00\x01\x02\x03garbage after a valid hello"))
	conn2.Close()

	assertMeshRecovers(t, m0, m1, "after-hostility")
}

// assertMeshRecovers retries a tiny session across the two-daemon mesh
// until one flows cleanly (the real dialer may need a moment to win
// its link back from a hostile replacement) or the deadline expires.
func assertMeshRecovers(t *testing.T, m0, m1 *SessionMux, prefix string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for attempt := 0; ; attempt++ {
		j0, j1 := newMemJournal(), newMemJournal()
		s0, err := m0.OpenRecovering(fmt.Sprintf("%s-%d", prefix, attempt), 500*time.Millisecond, j0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		s1, err := m1.OpenRecovering(s0.SID(), 500*time.Millisecond, j1)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		sendErr := s1.Send(1, 1, 0, 8, 42)
		v, recvErr := s0.RecvCtx(context.Background(), 0, 1, 1)
		s0.Close()
		s1.Close()
		if sendErr == nil && recvErr == nil && v.(int) == 42 {
			return // mesh healthy despite the hostile connections
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not recover from hostility: send=%v recv=%v", sendErr, recvErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Hostile but well-formed frames AFTER a valid handshake: an attacker
// that completes the hello as "party 1" and then floods the control
// lane with malformed envelopes — data for a session that does not
// exist, a resume cursor for an unknown session, an absurd resume
// cursor for a real one, and an unknown frame kind — must never crash
// the daemon or poison other sessions; the link is dropped and the
// real peer re-attaches.
func TestMuxRecoveringHostileControlFrames(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatalf("addrs: %v", err)
	}
	muxes := recoveringMesh(t, addrs, []int{1, 1}, 10*time.Second)
	m0, m1 := muxes[0], muxes[1]
	defer m0.Close()
	defer m1.Close()

	// A live session so the hostile frames have a real target to try to
	// poison.
	j0, j1 := newMemJournal(), newMemJournal()
	s0, err := m0.OpenRecovering("victim", 0, j0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s1, err := m1.OpenRecovering("victim", 0, j1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Each volley rides its own connection: a frame that kills the link
	// (unknown kind) must not mask the ones after it.
	volleys := [][]muxEnv{
		{ // data for a session nobody opened, with a lying seq
			{SID: "no-such-session", Kind: muxKindData, Round: 1, Bytes: 8, Seq: 999, Payload: 13},
			{SID: "no-such-session", Kind: muxKindData, Round: 2, Bytes: 8, Seq: 1, Payload: 14},
		},
		{ // resume cursors: unknown session, then an absurd cursor for a real one
			{SID: "no-such-session", Kind: muxKindResume, Seq: 1 << 40},
			{SID: "victim", Kind: muxKindResume, Seq: 1 << 40},
		},
		{ // an unknown frame kind, then a data frame the dropped link never delivers
			{Kind: 99, Payload: 0},
			{SID: "victim", Kind: muxKindData, Round: 1, Bytes: 8, Seq: 1, Payload: 666},
		},
	}
	for i, volley := range volleys {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatalf("hostile dial %d: %v", i, err)
		}
		if err := wirecodec.WriteValue(conn, hello{Party: 1, Epoch: 1, Mesh: "mux"}); err != nil {
			t.Fatalf("hostile hello %d: %v", i, err)
		}
		for _, env := range volley {
			wirecodec.WriteValue(conn, env)
		}
		time.Sleep(20 * time.Millisecond) // let the frames land before hanging up
		conn.Close()
	}

	// The victim session still flows end to end with the true payload —
	// the forged round-1 frame did not poison it (its queue keyed the
	// frames by the hostile link's party claim, and the link was
	// dropped), and fresh sessions work too.
	if err := s1.Send(1, 1, 0, 8, 42); err != nil {
		t.Fatalf("victim send: %v", err)
	}
	v, err := s0.RecvCtx(context.Background(), 0, 1, 1)
	if err != nil {
		t.Fatalf("victim recv: %v", err)
	}
	if v.(int) != 42 {
		t.Fatalf("victim session received %v, want the real payload 42", v)
	}
	s0.Close()
	s1.Close()
	assertMeshRecovers(t, m0, m1, "after-control-hostility")
}
