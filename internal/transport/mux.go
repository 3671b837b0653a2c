package transport

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"groupranking/internal/telemetry"
	"groupranking/internal/wirecodec"
)

// SessionMux generalizes the RecoveringTCPFabric handshake's sessionID
// into a frame-level route tag: N concurrent ranking sessions share ONE
// persistent TCP connection per peer pair, each session seeing its own
// transport.Net with per-session receive queues. This is the transport
// layer under the rankd coordinator daemon — a long-lived process hosts
// many sessions without paying a mesh formation (or a file descriptor
// pair) per session.
//
// Isolation contract: a session that aborts, overflows its receive
// budget, or closes never tears down the shared link — the other
// sessions keep flowing. Only a link-level failure (connection loss,
// malformed frame) fails every session's receives from that peer, each
// with a typed *AbortError naming the peer.
//
// Besides session data frames the mux carries a small control plane:
// untagged frames a daemon uses to negotiate session admission with its
// peers before any party goroutine spawns (see internal/service).
type SessionMux struct {
	n  int
	me int

	timeout    time.Duration
	queueCap   int
	pendingCap int

	conns []net.Conn
	encMu []sync.Mutex

	mu       sync.Mutex
	sessions map[string]*MuxSession
	pending  map[string]*pendingSession
	closed   map[string]bool
	closedQ  []string
	linkErr  []error

	ctrl chan ControlMsg
	mm   *muxMetrics

	// rec holds the recovering-mode state (nil when the mux was built
	// without MuxOptions.Recovery; every recovery hook checks it).
	rec *muxRecovery

	// lastSeen[peer] is the unix-nano time of the last frame decoded
	// from that peer (atomic; 0 before first contact).
	lastSeen []int64

	closeOnce sync.Once
	closeCh   chan struct{}
	pumps     sync.WaitGroup
}

// MuxOptions tunes a SessionMux. The zero value is a working default.
type MuxOptions struct {
	// Telemetry, when non-nil, feeds the mux_* metrics family: link
	// connects (exactly one per peer for the mux's whole lifetime — the
	// counter load tests assert on), per-link frame traffic, session
	// open/close counts and pending-buffer drops.
	Telemetry *telemetry.Registry
	// QueueCap bounds each session's per-peer receive queue in frames
	// (default 1024). A session whose consumer falls this far behind one
	// peer is failed — that is its memory budget — without touching the
	// link or any other session.
	QueueCap int
	// PendingCap bounds the frames buffered per session that a peer has
	// started sending into before this daemon opened it (default 1024).
	PendingCap int
	// ControlCap bounds the control-plane delivery channel (default 256).
	ControlCap int
	// Recovery, when non-nil, switches the mux into recovering mode:
	// the listener stays open for the mux's lifetime, lost links are
	// re-dialed and re-accepted instead of failing every session, and
	// journal-backed sessions opened with OpenRecovering survive both
	// peer restarts and a restart of this daemon itself.
	Recovery *MuxRecovery
}

// MuxRecovery configures a recovering SessionMux.
type MuxRecovery struct {
	// Epoch is this daemon's boot epoch (1 = first run), carried in the
	// link handshake so peers can tell a restarted daemon from a stale
	// connection.
	Epoch int
	// Grace bounds how long a lost link may stay down before the mux
	// blames the peer and fails every open session's receives from it
	// (default 30s). A link that re-attaches within the grace resumes
	// every session silently.
	Grace time.Duration
}

// ControlMsg is one control-plane frame: mux-level traffic between
// daemons that belongs to no session.
type ControlMsg struct {
	From    int
	Payload any
}

// muxHello introduces a daemon endpoint on a freshly dialed mux link.
// Epoch is the dialing daemon's boot epoch (0 when recovery is off):
// a recovering acceptor uses it to reject stale connections from
// before a peer's restart.
type muxHello struct {
	Party int
	Epoch int
}

// muxEnv is the mux wire frame: the TCP envelope extended with the
// session route tag. Kind separates per-session protocol data from the
// daemons' control plane (whose frames carry an empty SID). Seq is the
// per-(session,peer) send sequence number recovering sessions stamp on
// data frames (1-based; 0 marks an unsequenced frame from a session
// running without recovery) and the resume cursor on resume frames.
type muxEnv struct {
	SID     string
	Kind    uint8
	Round   int
	Bytes   int
	Seq     uint64
	Payload any
}

const (
	muxKindData    uint8 = 1
	muxKindControl uint8 = 2
	// muxKindResume is a per-session retransmission request: "I hold
	// Seq frames journaled from you for SID — re-send everything after
	// that." Sent after a link re-attach and by restarted daemons when
	// they re-adopt a session.
	muxKindResume uint8 = 3

	defaultMuxQueueCap   = 1024
	defaultMuxPendingCap = 1024
	defaultMuxControlCap = 256

	// muxTombstones bounds the closed-session set that absorbs late
	// frames; beyond it the oldest tombstones are forgotten (a frame for
	// a long-closed session then counts as pending and ages out).
	muxTombstones = 4096
	// muxPendingSessions bounds how many distinct not-yet-opened
	// sessions the mux buffers frames for; pendingTTL ages out entries
	// whose session never opens (e.g. an admission handshake that died
	// between the peer's open and ours).
	muxPendingSessions = 1024
	pendingTTL         = time.Minute
)

// pendingSession buffers data frames for a session a peer is already
// running but this endpoint has not opened yet.
type pendingSession struct {
	frames  []pendingFrame
	dropped bool
	since   time.Time
}

type pendingFrame struct {
	from int
	env  muxEnv
}

// NewSessionMux builds daemon me's endpoint of an n-daemon mesh, one
// persistent connection per peer pair, formed exactly like NewTCPFabric
// (listen on addrs[me], dial lower-indexed peers with backoff, accept
// higher-indexed ones) but with a typed hello frame so the link can
// later evolve independently of the single-session fabric. All daemons
// must call it concurrently. timeout bounds each write and is the
// default per-session receive bound; <= 0 means no bound.
func NewSessionMux(addrs []string, me int, timeout time.Duration, opts MuxOptions) (*SessionMux, error) {
	n := len(addrs)
	if n < 2 {
		return nil, fmt.Errorf("transport: mux mesh needs at least two parties")
	}
	if me < 0 || me >= n {
		return nil, fmt.Errorf("transport: party index %d out of range", me)
	}
	if err := validateMeshAddrs(addrs); err != nil {
		return nil, err
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = defaultMuxQueueCap
	}
	if opts.PendingCap <= 0 {
		opts.PendingCap = defaultMuxPendingCap
	}
	if opts.ControlCap <= 0 {
		opts.ControlCap = defaultMuxControlCap
	}
	m := &SessionMux{
		n:          n,
		me:         me,
		timeout:    timeout,
		queueCap:   opts.QueueCap,
		pendingCap: opts.PendingCap,
		conns:      make([]net.Conn, n),
		encMu:      make([]sync.Mutex, n),
		sessions:   make(map[string]*MuxSession),
		pending:    make(map[string]*pendingSession),
		closed:     make(map[string]bool),
		linkErr:    make([]error, n),
		ctrl:       make(chan ControlMsg, opts.ControlCap),
		lastSeen:   make([]int64, n),
		closeCh:    make(chan struct{}),
	}
	m.mm = newMuxMetrics(opts.Telemetry)

	if opts.Recovery != nil {
		if err := m.formRecovering(addrs, *opts.Recovery); err != nil {
			m.Close()
			return nil, err
		}
		return m, nil
	}

	ln, err := net.Listen("tcp", addrs[me])
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addrs[me], err)
	}
	defer ln.Close()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(dialDeadline))
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)

	// Accept from higher-indexed peers; each introduces itself with a
	// hello frame under a read deadline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < n-1-me; accepted++ {
			conn, err := ln.Accept()
			if err != nil {
				errs <- err
				return
			}
			conn.SetReadDeadline(time.Now().Add(handshakeDeadline))
			rd := bufio.NewReader(conn)
			v, err := wirecodec.ReadValue(rd)
			if err != nil {
				conn.Close()
				errs <- fmt.Errorf("transport: mux handshake: %w", err)
				return
			}
			conn.SetReadDeadline(time.Time{})
			hello, ok := v.(muxHello)
			if !ok || hello.Party <= me || hello.Party >= n || m.conns[hello.Party] != nil {
				conn.Close()
				errs <- fmt.Errorf("transport: invalid mux handshake from peer %v", v)
				return
			}
			m.attach(hello.Party, conn, rd)
		}
	}()

	// Dial lower-indexed peers with exponential backoff and jitter.
	for peer := 0; peer < me; peer++ {
		peer := peer
		wg.Add(1)
		go func() {
			defer wg.Done()
			jitter := rand.New(rand.NewSource(int64(me)<<16 | int64(peer)))
			backoff := dialBackoffBase
			deadline := time.Now().Add(dialDeadline)
			for {
				conn, err := net.Dial("tcp", addrs[peer])
				if err != nil {
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("transport: dialing party %d: %w", peer, err)
						return
					}
					d := backoff/2 + time.Duration(jitter.Int63n(int64(backoff)))
					time.Sleep(d)
					if backoff *= 2; backoff > dialBackoffMax {
						backoff = dialBackoffMax
					}
					continue
				}
				conn.SetWriteDeadline(time.Now().Add(handshakeDeadline))
				if err := wirecodec.WriteValue(conn, muxHello{Party: me}); err != nil {
					conn.Close()
					errs <- fmt.Errorf("transport: mux handshake: %w", err)
					return
				}
				conn.SetWriteDeadline(time.Time{})
				m.attach(peer, conn, bufio.NewReader(conn))
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// attach wires a handshaken link and starts its reader pump. The pump
// is the only reader of the connection; a read or decode failure fails
// the LINK (and with it every session's receives from that peer), which
// is the one failure a session cannot be isolated from.
func (m *SessionMux) attach(peer int, conn net.Conn, rd *bufio.Reader) {
	m.mu.Lock()
	m.conns[peer] = conn
	m.mu.Unlock()
	lm := m.mm.link(peer)
	lm.connects.inc()
	lm.linkUp.Set(1)
	m.pumps.Add(1)
	go func() {
		defer m.pumps.Done()
		for {
			v, err := wirecodec.ReadValue(rd)
			if err != nil {
				m.failLink(peer, err)
				return
			}
			env, ok := v.(muxEnv)
			if !ok {
				m.failLink(peer, fmt.Errorf("transport: party %d sent a %T frame, want mux envelope", peer, v))
				return
			}
			atomic.StoreInt64(&m.lastSeen[peer], time.Now().UnixNano())
			switch env.Kind {
			case muxKindControl:
				m.mm.ctrlFrames.inc()
				select {
				case m.ctrl <- ControlMsg{From: peer, Payload: env.Payload}:
				case <-m.closeCh:
					return
				}
			case muxKindData:
				m.mm.dataFrames.inc()
				m.routeData(peer, env)
			default:
				m.failLink(peer, fmt.Errorf("transport: party %d sent mux frame kind %d", peer, env.Kind))
				return
			}
		}
	}()
}

// routeData delivers one data frame: to its open session, to the
// pending buffer when the session has not been opened here yet, or to
// the floor when the session is already closed (tombstoned).
func (m *SessionMux) routeData(from int, env muxEnv) {
	m.mu.Lock()
	if s, ok := m.sessions[env.SID]; ok {
		m.mu.Unlock()
		s.deliver(from, env)
		return
	}
	if m.closed[env.SID] {
		m.mu.Unlock()
		m.mm.lateFrames.inc()
		return
	}
	p := m.pending[env.SID]
	if p == nil {
		if len(m.pending) >= muxPendingSessions {
			m.prunePendingLocked()
		}
		if len(m.pending) >= muxPendingSessions {
			m.mu.Unlock()
			m.mm.pendingDrops.inc()
			return
		}
		p = &pendingSession{since: time.Now()}
		m.pending[env.SID] = p
	}
	if len(p.frames) >= m.pendingCap {
		p.dropped = true
		m.mu.Unlock()
		m.mm.pendingDrops.inc()
		return
	}
	p.frames = append(p.frames, pendingFrame{from: from, env: env})
	m.mu.Unlock()
}

// prunePendingLocked ages out pending buffers whose session never
// opened. Caller holds m.mu.
func (m *SessionMux) prunePendingLocked() {
	cutoff := time.Now().Add(-pendingTTL)
	for sid, p := range m.pending {
		if p.since.Before(cutoff) {
			delete(m.pending, sid)
		}
	}
}

// failLink records a dead link and fails every open session's receives
// from that peer. Sessions are snapshotted under the lock but failed
// outside it (failPeer takes per-session locks).
func (m *SessionMux) failLink(peer int, cause error) {
	m.mu.Lock()
	if m.linkErr[peer] == nil {
		m.linkErr[peer] = cause
	}
	open := make([]*MuxSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	m.mm.link(peer).linkUp.Set(0)
	for _, s := range open {
		s.failPeer(peer, fmt.Errorf("%w: party %d: %w", ErrPeerDown, peer, cause))
	}
}

// Parties reports the mesh size (initiator + participants).
func (m *SessionMux) Parties() int { return m.n }

// Me reports this endpoint's party index.
func (m *SessionMux) Me() int { return m.me }

// Open registers sid and returns its transport.Net view of the shared
// mesh. Frames a peer sent into the session before this call were
// buffered and are replayed in per-peer FIFO order. timeout bounds this
// session's blocking receives and its writes; <= 0 inherits the mux
// default. A sid can be opened once per mux lifetime — reuse after
// Close is an error, because late frames for the old life were dropped.
func (m *SessionMux) Open(sid string, timeout time.Duration) (*MuxSession, error) {
	return m.open(sid, timeout, nil)
}

// open is the shared session-registration path behind Open and
// OpenRecovering; j is non-nil only for journal-backed sessions.
func (m *SessionMux) open(sid string, timeout time.Duration, j Journaler) (*MuxSession, error) {
	if sid == "" {
		return nil, fmt.Errorf("transport: mux session needs a non-empty id")
	}
	if timeout <= 0 {
		timeout = m.timeout
	}
	select {
	case <-m.closeCh:
		return nil, fmt.Errorf("transport: mux is closed")
	default:
	}
	s := &MuxSession{
		m:        m,
		sid:      sid,
		timeout:  timeout,
		inbox:    make([]chan muxEnv, m.n),
		peerErr:  make([]error, m.n),
		peerDown: make([]chan struct{}, m.n),
		rounds:   make(map[int]RoundStats),
		closeCh:  make(chan struct{}),
	}
	for i := 0; i < m.n; i++ {
		if i == m.me {
			continue
		}
		s.inbox[i] = make(chan muxEnv, m.queueCap)
		s.peerDown[i] = make(chan struct{})
	}
	if j != nil {
		if err := s.loadJournal(j); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	if m.sessions[sid] != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: mux session %q already open", sid)
	}
	if m.closed[sid] {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: mux session id %q was already used and closed", sid)
	}
	p := m.pending[sid]
	delete(m.pending, sid)
	if p != nil && p.dropped {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: mux session %q overflowed its pending buffer before it was opened", sid)
	}
	// Pre-fail peers whose link already died: the session must see the
	// same typed abort a live session would.
	var deadErrs []error
	var deadPeers []int
	for peer, err := range m.linkErr {
		if err != nil && peer != m.me {
			deadPeers = append(deadPeers, peer)
			deadErrs = append(deadErrs, fmt.Errorf("%w: party %d: %v", ErrPeerDown, peer, err))
		}
	}
	m.sessions[sid] = s
	if j != nil && m.rec != nil {
		m.rec.resumable[sid] = j
	}
	m.mu.Unlock()
	for i, peer := range deadPeers {
		s.failPeer(peer, deadErrs[i])
	}
	if p != nil {
		// Replay in arrival order: the single pump per peer appended in
		// order, so per-peer FIFO is preserved.
		for _, f := range p.frames {
			s.deliver(f.from, f.env)
		}
	}
	if j != nil {
		// Ask every connected peer for anything we have not journaled
		// yet; peers that attach later are asked on attach.
		s.announceResume()
	}
	m.mm.onSessionOpen()
	return s, nil
}

// retire tombstones a closed session so late frames for it are dropped
// instead of accumulating as pending.
func (m *SessionMux) retire(sid string) {
	m.mu.Lock()
	delete(m.sessions, sid)
	if !m.closed[sid] {
		m.closed[sid] = true
		m.closedQ = append(m.closedQ, sid)
		if len(m.closedQ) > muxTombstones {
			delete(m.closed, m.closedQ[0])
			m.closedQ = append([]string(nil), m.closedQ[1:]...)
		}
	}
	m.mu.Unlock()
	m.mm.onSessionClose()
}

// Control exposes the mux's control plane: frames peers sent with
// SendControl, in arrival order. The channel is never closed; select
// against Done.
func (m *SessionMux) Control() <-chan ControlMsg { return m.ctrl }

// Done is closed when the mux shuts down.
func (m *SessionMux) Done() <-chan struct{} { return m.closeCh }

// SendControl sends one control-plane frame to a peer daemon. The
// payload's type needs a registered wirecodec codec like any other
// frame; without one the send fails locally with the encode error.
func (m *SessionMux) SendControl(to int, payload any) error {
	if to < 0 || to >= m.n || to == m.me {
		return fmt.Errorf("transport: invalid control destination %d", to)
	}
	return m.writeFrame(to, m.timeout, muxEnv{Kind: muxKindControl, Payload: payload})
}

// writeFrame serializes one frame onto the shared link to a peer.
func (m *SessionMux) writeFrame(to int, timeout time.Duration, env muxEnv) error {
	m.mu.Lock()
	conn := m.conns[to]
	lerr := m.linkErr[to]
	m.mu.Unlock()
	if conn == nil || lerr != nil {
		if lerr == nil {
			lerr = fmt.Errorf("no connection")
		}
		return Abort(to, env.Round, "", fmt.Errorf("%w: party %d: %v", ErrPeerDown, to, lerr))
	}
	m.encMu[to].Lock()
	defer m.encMu[to].Unlock()
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if err := wirecodec.WriteValue(conn, env); err != nil {
		if lerr := encodeFault(to, env.Round, err); lerr != nil {
			return lerr
		}
		return Abort(to, env.Round, "", fmt.Errorf("%w: sending to party %d: %v", ErrPeerDown, to, err))
	}
	return nil
}

// Health implements telemetry.HealthSource for the daemon's admin
// endpoint: mux links are either connected or dead.
func (m *SessionMux) Health() []telemetry.PeerHealth {
	closed := false
	select {
	case <-m.closeCh:
		closed = true
	default:
	}
	out := make([]telemetry.PeerHealth, 0, m.n-1)
	m.mu.Lock()
	defer m.mu.Unlock()
	for peer := 0; peer < m.n; peer++ {
		if peer == m.me {
			continue
		}
		state := telemetry.StateConnected
		if closed || m.linkErr[peer] != nil || m.conns[peer] == nil {
			state = telemetry.StateDead
			// A recovering link that is down but inside its grace window
			// is reconnecting, not dead.
			if !closed && m.rec != nil && m.linkErr[peer] == nil && !m.rec.blamed[peer] {
				state = telemetry.StateReconnecting
			}
		}
		last := int64(-1)
		if ns := atomic.LoadInt64(&m.lastSeen[peer]); ns != 0 {
			last = time.Since(time.Unix(0, ns)).Milliseconds()
		}
		out = append(out, telemetry.PeerHealth{Peer: peer, State: state, LastContactMS: last})
	}
	return out
}

// Close tears down the mesh: every open session's receives fail with
// ErrClosed, the pumps drain, and no goroutine outlives the mux.
// Safe to call more than once and concurrently with traffic.
func (m *SessionMux) Close() {
	m.closeOnce.Do(func() {
		close(m.closeCh)
		m.mu.Lock()
		if m.rec != nil {
			m.rec.closeLocked()
		}
		for _, c := range m.conns {
			if c != nil {
				c.Close()
			}
		}
		m.mu.Unlock()
		m.pumps.Wait()
	})
}

// MuxSession is one session's view of the shared mesh: a transport.Net
// whose frames carry the session's route tag, with the same endpoint
// statistics TCPFabric reports. Closing it detaches the session from
// the mux (late frames are dropped); it never closes the shared links.
type MuxSession struct {
	m       *SessionMux
	sid     string
	timeout time.Duration

	inbox []chan muxEnv

	peerMu   sync.Mutex
	peerErr  []error
	peerDown []chan struct{}

	statsMu   sync.Mutex
	msgs      int64
	bytes     int64
	maxRound  int
	rounds    map[int]RoundStats
	echoMsgs  int64
	echoBytes int64

	// Journal-backed recovery state (nil/unused when j is nil): see
	// muxrecover.go. sendMu guards the send side (sequence counters and
	// replay suppression), recvMu the receive side (replay queues, the
	// next-expected cursors and the per-peer reorder stash).
	j           Journaler
	sendMu      sync.Mutex
	sendSeq     []uint64
	replaySends [][]JournalMsg
	resuming    []bool
	recvMu      sync.Mutex
	recvNext    []uint64
	replayRecvs [][]JournalMsg
	stash       []map[uint64]muxEnv

	closeOnce sync.Once
	closeCh   chan struct{}
}

var _ Net = (*MuxSession)(nil)

// SID reports the session's route tag.
func (s *MuxSession) SID() string { return s.sid }

// N implements Net.
func (s *MuxSession) N() int { return s.m.n }

// deliver enqueues one inbound frame. The queue is this session's
// receive budget: overflowing it fails THIS session's receives from
// that peer (isolation demands the pump never blocks on a slow
// session), leaving the link and every other session untouched.
func (s *MuxSession) deliver(from int, env muxEnv) {
	if env.Kind == muxKindResume {
		// A retransmission request for this session; served off the pump
		// goroutine so a slow link never blocks other sessions' reads.
		s.serveResume(from, env.Seq)
		return
	}
	s.peerMu.Lock()
	failed := s.peerErr[from] != nil
	s.peerMu.Unlock()
	if failed {
		return
	}
	select {
	case s.inbox[from] <- env:
	default:
		s.failPeer(from, fmt.Errorf("mux session %s: receive queue from party %d overflowed its %d-frame budget", s.sid, from, cap(s.inbox[from])))
	}
}

// failPeer marks receives from one peer as failed for this session.
func (s *MuxSession) failPeer(from int, cause error) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if s.peerErr[from] != nil {
		return
	}
	s.peerErr[from] = cause
	close(s.peerDown[from])
}

// Send implements Net: the frame rides the shared link tagged with this
// session's id. Only this party's own index is a valid source.
func (s *MuxSession) Send(round, from, to, bytes int, payload any) error {
	if from != s.m.me {
		return fmt.Errorf("transport: mux party %d cannot send as %d", s.m.me, from)
	}
	if to < 0 || to >= s.m.n || to == s.m.me {
		return fmt.Errorf("transport: invalid destination %d", to)
	}
	s.statsMu.Lock()
	if IsEchoRound(round) {
		s.echoMsgs++
		s.echoBytes += int64(bytes)
	} else {
		s.msgs++
		s.bytes += int64(bytes)
		if round > s.maxRound {
			s.maxRound = round
		}
		rs := s.rounds[round]
		rs.Messages++
		rs.Bytes += int64(bytes)
		s.rounds[round] = rs
	}
	s.statsMu.Unlock()
	s.m.mm.onSessionSend(bytes)
	if s.j != nil {
		return s.sendRecovering(round, to, bytes, payload)
	}
	return s.m.writeFrame(to, s.timeout, muxEnv{SID: s.sid, Kind: muxKindData, Round: round, Bytes: bytes, Payload: payload})
}

// RecvCtx implements Net. Frames already queued are drained even after
// the peer failed; a failed peer then surfaces as a typed AbortError
// carrying the first failure cause.
func (s *MuxSession) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if to != s.m.me {
		return nil, fmt.Errorf("transport: mux party %d cannot receive as %d", s.m.me, to)
	}
	if from < 0 || from >= s.m.n || from == s.m.me {
		return nil, fmt.Errorf("transport: invalid source %d", from)
	}
	if s.j != nil {
		return s.recvRecovering(ctx, from, round)
	}
	take := func(env muxEnv) (any, error) {
		if round >= 0 && env.Round != round {
			return nil, roundMismatchAbort(from, round, env.Round)
		}
		return env.Payload, nil
	}
	// Drain queued frames first so a failure never eats data that
	// arrived before it.
	select {
	case env := <-s.inbox[from]:
		return take(env)
	default:
	}
	var timerC <-chan time.Time
	if s.timeout > 0 {
		tm := time.NewTimer(s.timeout)
		defer tm.Stop()
		timerC = tm.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		select {
		case env := <-s.inbox[from]:
			return take(env)
		case <-s.peerDown[from]:
			// One more non-blocking drain: the frame may have raced the
			// failure into the queue.
			select {
			case env := <-s.inbox[from]:
				return take(env)
			default:
			}
			s.peerMu.Lock()
			cause := s.peerErr[from]
			s.peerMu.Unlock()
			return nil, Abort(from, round, "", cause)
		case <-done:
			return nil, Abort(from, round, "", ctx.Err())
		case <-timerC:
			return nil, Abort(from, round, "", ErrTimeout)
		case <-s.closeCh:
			return nil, Abort(from, round, "", ErrClosed)
		case <-s.m.closeCh:
			return nil, Abort(from, round, "", ErrClosed)
		}
	}
}

// Broadcast implements Net, best-effort like TCPFabric's.
func (s *MuxSession) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(s.m.n, s.m.me, func(to int) error {
		return s.Send(round, from, to, bytes, payload)
	})
}

// GatherAllCtx implements Net.
func (s *MuxSession) GatherAllCtx(ctx context.Context, to, round int) ([]any, error) {
	return gatherAll(ctx, s, to, round)
}

// Stats reports this session's endpoint traffic in the same shape as
// TCPFabric.Stats: only this party's slot is populated.
func (s *MuxSession) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := Stats{
		MessagesSent:   make([]int64, s.m.n),
		BytesSent:      make([]int64, s.m.n),
		MaxRound:       s.maxRound,
		DistinctRounds: len(s.rounds),
		PerRound:       make(map[int]RoundStats, len(s.rounds)),
		EchoMessages:   s.echoMsgs,
		EchoBytes:      s.echoBytes,
	}
	out.MessagesSent[s.m.me] = s.msgs
	out.BytesSent[s.m.me] = s.bytes
	for r, rs := range s.rounds {
		out.PerRound[r] = rs
	}
	return out
}

// Close detaches the session from the mux: its receives fail with
// ErrClosed and late frames tagged with its id are dropped. The shared
// links stay up for every other session. Safe to call more than once.
func (s *MuxSession) Close() {
	s.closeOnce.Do(func() {
		close(s.closeCh)
		s.m.retire(s.sid)
	})
}

// muxMetrics is the mux's telemetry bundle. All handles are nil-safe so
// a daemon without telemetry pays one nil check per event.
type muxMetrics struct {
	connects *telemetry.CounterVec
	linkUp   *telemetry.GaugeVec

	dataFrames   nilCounter
	ctrlFrames   nilCounter
	sessionMsgs  nilCounter
	sessionBytes nilCounter
	opened       nilCounter
	closed       nilCounter
	pendingDrops nilCounter
	lateFrames   nilCounter
	resumeFrames nilCounter
	retransmits  nilCounter

	// active mirrors the open-session count into a gauge; the count is
	// kept here because telemetry gauges only support Set.
	activeN int64
	active  *telemetry.Gauge
}

// onSessionOpen / onSessionClose keep the active-session gauge.
func (mm *muxMetrics) onSessionOpen() {
	mm.opened.inc()
	if mm.active != nil {
		mm.active.Set(float64(atomic.AddInt64(&mm.activeN, 1)))
	}
}

func (mm *muxMetrics) onSessionClose() {
	mm.closed.inc()
	if mm.active != nil {
		mm.active.Set(float64(atomic.AddInt64(&mm.activeN, -1)))
	}
}

// nilCounter / nilGauge wrap the telemetry handles so a nil muxMetrics
// receiver (telemetry disabled) stays inert without scattering checks.
type nilCounter struct{ c *telemetry.Counter }

func (c nilCounter) inc() {
	if c.c != nil {
		c.c.Inc()
	}
}

func (c nilCounter) add(v int64) {
	if c.c != nil {
		c.c.Add(v)
	}
}

type muxLinkMetrics struct {
	connects nilCounter
	linkUp   nilLinkGauge
}

type nilLinkGauge struct{ g *telemetry.Gauge }

func (g nilLinkGauge) Set(v float64) {
	if g.g != nil {
		g.g.Set(v)
	}
}

func newMuxMetrics(reg *telemetry.Registry) *muxMetrics {
	if reg == nil {
		return &muxMetrics{}
	}
	return &muxMetrics{
		connects:     reg.CounterVec("mux_link_connects_total", "Mux link establishments per peer — stays at 1 per peer for the daemon's lifetime when sessions truly share the connection.", "peer"),
		linkUp:       reg.GaugeVec("mux_link_up", "Mux link state per peer: 1 connected, 0 down.", "peer"),
		dataFrames:   nilCounter{reg.Counter("mux_data_frames_total", "Session data frames received over all mux links.")},
		ctrlFrames:   nilCounter{reg.Counter("mux_control_frames_total", "Control-plane frames received over all mux links.")},
		sessionMsgs:  nilCounter{reg.Counter("mux_session_msgs_total", "Session protocol messages sent by this daemon across all sessions.")},
		sessionBytes: nilCounter{reg.Counter("mux_session_bytes_total", "Session protocol bytes sent by this daemon across all sessions.")},
		opened:       nilCounter{reg.Counter("mux_sessions_opened_total", "Sessions opened on this mux.")},
		closed:       nilCounter{reg.Counter("mux_sessions_closed_total", "Sessions closed on this mux.")},
		pendingDrops: nilCounter{reg.Counter("mux_pending_dropped_total", "Frames dropped because a not-yet-opened session overran its pending buffer.")},
		lateFrames:   nilCounter{reg.Counter("mux_late_frames_total", "Frames dropped because their session was already closed.")},
		resumeFrames: nilCounter{reg.Counter("mux_resume_frames_total", "Resume (retransmission request) frames received over all mux links.")},
		retransmits:  nilCounter{reg.Counter("mux_retransmit_frames_total", "Session frames re-served from a journal after a resume request.")},
		active:       reg.Gauge("mux_sessions_active", "Sessions currently open on this mux."),
	}
}

func (mm *muxMetrics) link(peer int) muxLinkMetrics {
	if mm == nil || mm.connects == nil {
		return muxLinkMetrics{}
	}
	p := strconv.Itoa(peer)
	return muxLinkMetrics{
		connects: nilCounter{mm.connects.With(p)},
		linkUp:   nilLinkGauge{mm.linkUp.With(p)},
	}
}

func (mm *muxMetrics) onSessionSend(bytes int) {
	if mm == nil {
		return
	}
	mm.sessionMsgs.inc()
	mm.sessionBytes.add(int64(bytes))
}
