package transport

import (
	"fmt"
	"time"

	"groupranking/internal/telemetry"
)

// RecoveringTCPFabric implements Net over a self-healing TCP mesh with
// journal-backed crash recovery: a recovering SessionMux (muxrecover.go)
// carrying one session, exactly as TCPFabric is a fail-fast one. Its
// links redial and re-accept (link.go, grace > 0, mesh tag
// session/<SessionID>), carry heartbeats, and resume every interrupted
// conversation from the senders' journals; a restarted process replays
// its own journal to its deterministic recomputation and rejoins live at
// the first un-journaled message. Blame is assigned only after a peer
// has failed to reconnect for a full grace window, and the receive
// timeout still bounds every wait, so a peer that never returns aborts
// the session exactly as on TCPFabric.
type RecoveringTCPFabric struct{ sessionFabric }

var _ Net = (*RecoveringTCPFabric)(nil)

// RecoverOptions configures a RecoveringTCPFabric.
type RecoverOptions struct {
	// SessionID names the protocol session; all parties must agree (the
	// deployment layer derives it from the pinned session parameters).
	// Connections announcing a different session are rejected.
	SessionID string
	// Epoch is this process's journal epoch (1 = first run), carried in
	// the handshake so peers reject stale connections from before a
	// restart. It also decides how the mesh forms (see
	// NewRecoveringTCPFabric).
	Epoch int
	// Journal, when non-nil, makes the session durable across process
	// crashes. Nil keeps it in memory: reconnect-only recovery
	// (transient disconnects heal; a restart of this process does not).
	Journal Journaler
	// Grace is how long a disconnected peer may take to reconnect before
	// blame is assigned and receives from it abort with ErrPeerDown
	// (default 15s).
	Grace time.Duration
	// Telemetry, when non-nil, feeds the live metrics registry through
	// the mux's options: the send ledger's view (protocol counters and
	// round cadence) and the mux's link bundle (redials, connects,
	// retransmissions, heartbeat RTT). Nil disables instrumentation at
	// zero cost.
	Telemetry *telemetry.Registry
}

// NewRecoveringTCPFabric builds party me's endpoint of an n-party
// recovery mesh. Topology matches NewTCPFabric: the endpoint listens on
// addrs[me], dials every lower-indexed party and accepts from every
// higher-indexed one — and keeps doing both for the fabric's lifetime,
// so severed links heal and restarted peers rejoin. timeout bounds each
// receive wait and each write, exactly as on the plain fabric. At epoch
// 1 it returns once every link is up; a restarted process returns at
// once (see the formation comment below).
func NewRecoveringTCPFabric(addrs []string, me int, timeout time.Duration, opts RecoverOptions) (*RecoveringTCPFabric, error) {
	if opts.SessionID == "" {
		return nil, fmt.Errorf("transport: recovery mesh needs a session ID")
	}
	j := opts.Journal
	if j == nil {
		j = newMemJournal()
	}
	// Mesh formation. A first run (epoch 1) requires every link up
	// before the protocol starts. A restarted process must not wait:
	// peers that already finished their role and drained may be gone for
	// good, and everything they ever sent is replayable from the journal
	// — so links come up lazily as peers accept or redial, and each link
	// still down has been on its grace clock since start (a peer that
	// neither reconnects nor is fully journaled gets blamed, not waited
	// on forever).
	mux, err := newSessionMux(addrs, me, timeout, MuxOptions{
		Telemetry: opts.Telemetry,
		Recovery:  &MuxRecovery{Epoch: opts.Epoch, Grace: opts.Grace},
	}, "session/"+opts.SessionID, opts.Epoch <= 1)
	if err != nil {
		return nil, err
	}
	s, err := mux.OpenRecovering(opts.SessionID, timeout, j)
	if err != nil {
		mux.Close()
		return nil, err
	}
	return &RecoveringTCPFabric{sessionFabric{MuxSession: s, mesh: mux.link}}, nil
}

// Drain keeps a finished party's endpoint up — accepting reconnects and
// serving resume requests from its journal — so a crashed peer's
// replacement can still collect what it missed, instead of this party
// taking the only live copy of those messages down with it. It first
// reports this party's final receive cursors to every peer, then waits
// until every peer has reported a cursor covering everything this party
// sent it (true), until bound expires (bound ≤ 0 uses the grace window),
// or until receives from a peer still owed frames have failed for good
// (false).
func (f *RecoveringTCPFabric) Drain(bound time.Duration) bool {
	if bound <= 0 {
		bound = f.mesh.grace
	}
	for peer := 0; peer < f.m.n; peer++ {
		if peer != f.m.me {
			f.sendCursor(peer, muxNoReply)
		}
	}
	deadline := time.Now().Add(bound)
	for {
		covered, failed := f.drainState()
		switch {
		case covered:
			return true
		case failed || f.mesh.closed() || time.Now().After(deadline):
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
