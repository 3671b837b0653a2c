package transport

import (
	"fmt"
	"time"

	"groupranking/internal/telemetry"
)

// TCPFabric implements Net over real TCP connections, so the protocol
// stack runs unchanged across processes or machines — the deployment
// shape the paper's "fully distributed framework" implies. It is a
// SessionMux carrying exactly one session, which owns the mux: each
// pair of parties shares one duplex TCP connection (link.go) carrying
// muxEnv frames (length-prefixed, versioned binary), and per-sender
// FIFO ordering is TCP's ordering. A one-shot party and a daemon
// session therefore run the same send and receive code.
//
// Failure behaviour, fail-fast (NewTCPFabric, or OpenTCPFabric without
// MuxOptions.Recovery): a lost connection or a malformed frame is
// detected by the link's reader pump and surfaces on the next receive
// as a typed *AbortError naming the peer (ErrPeerDown), never as a hang
// or a decode panic; nothing reconnects. Writes carry a deadline so a
// stalled peer cannot block a sender forever.
//
// Recovering (OpenTCPFabric with MuxOptions.Recovery): the session is
// journal-backed (muxrecover.go). Links redial and re-accept, carry
// heartbeats, and resume every interrupted conversation from the
// senders' journals; a restarted process replays its own journal to its
// deterministic recomputation and rejoins live at the first
// un-journaled message. Blame is assigned only after a peer has failed
// to reconnect for a full grace window, and the receive timeout still
// bounds every wait, so a peer that never returns aborts the session
// exactly as on a fail-fast fabric.
//
// Payload types that cross a TCPFabric use the wirecodec codecs their
// packages register from init. A payload without one does not cross:
// Send returns the codec's encode error, blaming nobody.
type TCPFabric struct{ *MuxSession }

var _ Net = (*TCPFabric)(nil)

// tcpFabricSID is the route tag of a fail-fast TCPFabric's one session,
// and the tag its links carry.
const tcpFabricSID = "tcp"

// NewTCPFabric builds party me's fail-fast endpoint of an n-party mesh,
// without telemetry: OpenTCPFabric with zero options. addrs lists every
// party's listen address (host:port); the function listens on
// addrs[me], dials every lower-indexed party (with exponential backoff
// and jitter while they come up), accepts connections from every
// higher-indexed one, and returns when the mesh is complete. All
// parties must call it concurrently. timeout bounds each receive wait
// and each write; <= 0 means no bound.
func NewTCPFabric(addrs []string, me int, timeout time.Duration) (*TCPFabric, error) {
	return OpenTCPFabric(addrs, me, timeout, MuxOptions{}, "", nil)
}

// OpenTCPFabric builds party me's endpoint of an n-party mesh with the
// options a daemon gives its SessionMux. Topology and timeout are
// NewTCPFabric's. opts.Telemetry feeds the mux's metrics families, the
// link family included.
//
// Without opts.Recovery the fabric is fail-fast; sid and j must be
// empty. With it, sid names the protocol session (all parties must
// agree; connections announcing another session are rejected) and j is
// its journal, as for SessionMux.OpenRecovering; both are required. The
// endpoint keeps listening and dialling for its lifetime, so severed
// links heal and restarted peers rejoin.
func OpenTCPFabric(addrs []string, me int, timeout time.Duration, opts MuxOptions, sid string, j Journaler) (*TCPFabric, error) {
	tag, await := tcpFabricSID, true
	if opts.Recovery == nil {
		if sid != "" || j != nil {
			return nil, fmt.Errorf("transport: a session ID and journal need MuxOptions.Recovery")
		}
		sid = tcpFabricSID
	} else {
		if sid == "" || j == nil {
			return nil, fmt.Errorf("transport: recovery mesh needs a session ID and a journal")
		}
		// A first run (epoch 1) requires every link up before the
		// protocol starts. A restarted process must not wait: peers that
		// already finished their role and drained may be gone for good,
		// and everything they ever sent is replayable from the journal —
		// so links come up lazily as peers accept or redial, and each
		// link still down has been on its grace clock since start (a peer
		// that neither reconnects nor is fully journaled gets blamed, not
		// waited on forever).
		tag, await = "session/"+sid, opts.Recovery.Epoch <= 1
	}
	mux, err := newSessionMux(addrs, me, timeout, opts, tag, await)
	if err != nil {
		return nil, err
	}
	s, err := mux.open(sid, timeout, j)
	if err != nil {
		mux.Close()
		return nil, err
	}
	return &TCPFabric{s}, nil
}

// Health implements telemetry.HealthSource: connected, reconnecting
// (recovering fabric only: down but inside the grace) or dead.
func (f *TCPFabric) Health() []telemetry.PeerHealth { return f.m.Health() }

// Drain keeps a finished party's endpoint up — accepting reconnects and
// serving resume requests from its journal — so a crashed peer's
// replacement can still collect what it missed, instead of this party
// taking the only live copy of those messages down with it. It first
// reports this party's final receive cursors to every peer, then waits
// until every peer has reported a cursor covering everything this party
// sent it (true), until bound expires (bound ≤ 0 uses the grace window),
// or until receives from a peer still owed frames have failed for good
// (false). A fail-fast fabric has no journal to serve from and returns
// true at once.
func (f *TCPFabric) Drain(bound time.Duration) bool {
	if f.j == nil {
		return true
	}
	if bound <= 0 {
		bound = f.m.link.grace
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
		case failed || f.m.link.closed() || time.Now().After(deadline):
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close tears down the endpoint: it closes every connection and waits
// for the mux's goroutines, so none outlives the fabric. Safe to call
// more than once and concurrently with protocol traffic (in-flight
// receives fail with ErrClosed).
func (f *TCPFabric) Close() {
	f.MuxSession.Close()
	f.m.Close()
}
