package transport

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"groupranking/internal/telemetry"
)

// SessionMux puts a session route tag on every frame: N concurrent
// ranking sessions share ONE persistent TCP connection per peer pair
// (link.go), each session seeing its own transport.Net with per-session
// receive queues. This is the transport layer under the rankd
// coordinator daemon — a long-lived process hosts many sessions without
// paying a mesh formation (or a file descriptor pair) per session — and,
// carrying a single session, under TCPFabric.
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

	timeout time.Duration

	// link is the TCP mesh under the mux (link.go): it owns every
	// connection, and the mux sees it through onFrame, onUp and onBlame.
	link *mesh

	mu       sync.Mutex
	sessions map[string]*MuxSession
	pending  map[string]*pendingSession
	closed   map[string]bool
	closedQ  []string
	// linkErr[peer] is the blame a peer's link currently stands under
	// (nil while it is up or inside its grace); sessions opened while it
	// is set start with receives from that peer already failed.
	linkErr []error

	ctrl chan ControlMsg
	mm   *muxMetrics
	// tm is the live view of the send ledger every session shares.
	tm *netMetrics

	// rec holds the recovering-mode state (nil when the mux was built
	// without MuxOptions.Recovery; every recovery hook checks it).
	rec *muxRecovery
}

// MuxOptions tunes a SessionMux. The zero value is a working default.
type MuxOptions struct {
	// Telemetry, when non-nil, feeds the mux_* metrics family: link
	// redials and connects (exactly one connect per peer for the mux's
	// whole lifetime — the counter load tests assert on), link state,
	// per-link frame traffic, retransmissions, heartbeat RTT, session
	// open/close counts and pending-buffer drops; and the send ledger's
	// live view, shared by every session (metrics.go).
	Telemetry *telemetry.Registry
	// Recovery, when non-nil, switches the mux into recovering mode:
	// lost links are re-dialed and re-accepted instead of failing every
	// session at once, and journal-backed sessions opened with
	// OpenRecovering survive both peer restarts and a restart of this
	// daemon itself.
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
	// (default 15s). A link that re-attaches within the grace resumes
	// every session silently.
	Grace time.Duration
}

// ControlMsg is one control-plane frame: mux-level traffic between
// daemons that belongs to no session.
type ControlMsg struct {
	From    int
	Payload any
}

// muxEnv is the mux wire frame: a message's round tag, logical byte
// size and payload under the session route tag. Kind separates
// per-session protocol data from the daemons' control plane (whose
// frames carry an empty SID). Seq is the per-(session,peer) send
// sequence number recovering sessions stamp on data frames (1-based; 0
// marks an unsequenced frame from a session running without recovery),
// the cursor on resume frames and the sender's clock on heartbeats.
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
	// muxKindHeartbeat keeps a recovering link's read deadline moving;
	// Seq carries the prober's clock, which the echo returns.
	muxKindHeartbeat uint8 = 4

	// muxNoReply, in the Round of a resume or heartbeat frame, marks one
	// that must not be answered: a bare cursor report (no
	// retransmission) or a heartbeat's echo.
	muxNoReply = 1

	// muxQueueCap bounds each session's per-peer receive queue in
	// frames. A session whose consumer falls this far behind one peer
	// is failed — that is its memory budget — without touching the
	// link or any other session.
	muxQueueCap = 1024

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
	// muxPendingCap bounds the frames buffered per session that a peer
	// has started sending into before this daemon opened it.
	muxPendingCap = 1024
	// muxControlCap bounds the control-plane delivery channel.
	muxControlCap = 256
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
// persistent connection per peer pair, and returns when every link is
// up (see link.go for how the mesh forms). All daemons must call it
// concurrently. timeout bounds each write and is the default
// per-session receive bound; <= 0 means no bound.
func NewSessionMux(addrs []string, me int, timeout time.Duration, opts MuxOptions) (*SessionMux, error) {
	return newSessionMux(addrs, me, timeout, opts, "mux", true)
}

// newSessionMux builds a mux whose links carry the given mesh tag, so a
// single-session fabric endpoint and a daemon's mux never link up. With
// await it returns once every link has come up; without, links come up
// as peers accept or redial.
func newSessionMux(addrs []string, me int, timeout time.Duration, opts MuxOptions, tag string, await bool) (*SessionMux, error) {
	n := len(addrs)
	m := &SessionMux{
		n:        n,
		me:       me,
		timeout:  timeout,
		sessions: make(map[string]*MuxSession),
		pending:  make(map[string]*pendingSession),
		closed:   make(map[string]bool),
		linkErr:  make([]error, n),
		ctrl:     make(chan ControlMsg, muxControlCap),
		mm:       newMuxMetrics(opts.Telemetry),
	}
	m.link = &mesh{
		addrs: addrs, me: me, tag: tag,
		tm:      m.mm.link,
		onFrame: m.onFrame, onUp: m.onUp, onBlame: m.onBlame,
	}
	if r := opts.Recovery; r != nil {
		m.rec = &muxRecovery{resumable: make(map[string]Journaler), serving: make(map[string]bool), rtt: make([]atomic.Int64, n)}
		m.link.epoch, m.link.grace = max(r.Epoch, 1), r.Grace
		if m.link.grace <= 0 {
			m.link.grace = defaultGrace
		}
	}
	if err := m.link.start(); err != nil {
		return nil, err
	}
	if m.rec != nil {
		m.rec.wg.Add(1)
		go m.heartbeatLoop()
	}
	if await {
		if err := m.link.awaitUp(dialDeadline); err != nil {
			m.Close()
			return nil, err
		}
	}
	// The send ledger's live view is registered once the formation wait
	// is over: no session exists to send before, and a scrape that finds
	// the view on a mesh that waited for its links knows they are up.
	m.tm = newNetMetrics(opts.Telemetry)
	return m, nil
}

// onFrame routes one decoded frame off a link. Anything but a
// well-formed mux envelope fails the LINK (and with it every session's
// receives from that peer once the peer is blamed), which is the one
// failure a session cannot be isolated from.
func (m *SessionMux) onFrame(peer int, v any) error {
	env, ok := v.(muxEnv)
	if !ok {
		return fmt.Errorf("transport: party %d sent a %T frame, want mux envelope", peer, v)
	}
	switch {
	case env.Kind == muxKindControl:
		m.mm.ctrlFrames.Inc()
		select {
		case m.ctrl <- ControlMsg{From: peer, Payload: env.Payload}:
		case <-m.Done():
		}
	case env.Kind == muxKindData:
		m.mm.dataFrames.Inc()
		m.routeData(peer, env)
	case env.Kind == muxKindResume && m.rec != nil:
		m.mm.resumeFrames.Inc()
		m.routeResume(peer, env)
	case env.Kind == muxKindHeartbeat && m.rec != nil:
		m.onHeartbeat(peer, env)
	default:
		return fmt.Errorf("transport: party %d sent mux frame kind %d", peer, env.Kind)
	}
	return nil
}

// onUp runs when a link (re-)attaches: the peer's blame is withdrawn
// for sessions opened from now on, and every open journal-backed
// session asks the peer for the frames it missed during the outage.
func (m *SessionMux) onUp(peer, _ int) {
	m.mu.Lock()
	m.linkErr[peer] = nil
	var resumes []*MuxSession
	for _, s := range m.sessions {
		if s.j != nil {
			resumes = append(resumes, s)
		}
	}
	m.mu.Unlock()
	for _, s := range resumes {
		go s.sendCursor(peer, 0)
	}
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
		m.mm.lateFrames.Inc()
		return
	}
	p := m.pending[env.SID]
	if p == nil {
		if len(m.pending) >= muxPendingSessions {
			m.prunePendingLocked()
		}
		if len(m.pending) >= muxPendingSessions {
			m.mu.Unlock()
			m.mm.pendingDrops.Inc()
			return
		}
		p = &pendingSession{since: time.Now()}
		m.pending[env.SID] = p
	}
	if len(p.frames) >= muxPendingCap {
		p.dropped = true
		m.mu.Unlock()
		m.mm.pendingDrops.Inc()
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

// onBlame runs when the link layer gives up on a peer (at once on a
// fail-fast mux, after the grace on a recovering one): every open
// session's receives from that peer fail with the typed ErrPeerDown
// abort. Sessions are snapshotted under the lock but failed outside it.
func (m *SessionMux) onBlame(peer int, err error) {
	m.mu.Lock()
	m.linkErr[peer] = err
	open := make([]*MuxSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	for _, s := range open {
		s.down[peer].fail(err)
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
	if m.link.closed() {
		return nil, fmt.Errorf("transport: mux is closed")
	}
	s := &MuxSession{
		m:       m,
		sid:     sid,
		timeout: timeout,
		inbox:   make([]chan muxEnv, m.n),
		down:    make([]downSignal, m.n),
		closeCh: make(chan struct{}),
	}
	s.sendStats.init(m.n, m.tm)
	for i := 0; i < m.n; i++ {
		if i != m.me {
			s.inbox[i] = make(chan muxEnv, muxQueueCap)
		}
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
	if p != nil {
		// Replay in arrival order (one pump per peer appended them), under
		// the lock so no live frame overtakes them, and before the
		// pre-fail, which would drop what a blamed peer sent before it left.
		for _, f := range p.frames {
			s.deliver(f.from, f.env)
		}
	}
	// Pre-fail peers that stand blamed: the session must see the same
	// typed abort a session open at the time of the blame did.
	for peer, err := range m.linkErr {
		if err != nil {
			s.down[peer].fail(err)
		}
	}
	m.sessions[sid] = s
	if j != nil && m.rec != nil {
		m.rec.resumable[sid] = j
	}
	m.mu.Unlock()
	if j != nil {
		// Ask every connected peer for anything we have not journaled
		// yet; peers that attach later are asked on attach.
		for peer := 0; peer < m.n; peer++ {
			if peer != m.me && m.link.conn(peer) != nil {
				go s.sendCursor(peer, 0)
			}
		}
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
func (m *SessionMux) Done() <-chan struct{} { return m.link.done() }

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
	return m.link.write(to, env.Round, timeout, env)
}

// Health implements telemetry.HealthSource for the daemon's admin
// endpoint: the link layer's view plus, on a recovering mux, the latest
// heartbeat round trip per peer.
func (m *SessionMux) Health() []telemetry.PeerHealth {
	out := m.link.Health()
	if m.rec != nil {
		for i := range out {
			out[i].HeartbeatRTTMS = float64(m.rec.rtt[out[i].Peer].Load()) / float64(time.Millisecond)
		}
	}
	return out
}

// Close tears down the mesh: every open session's receives fail with
// ErrClosed, the pumps drain, and no goroutine outlives the mux.
// Safe to call more than once and concurrently with traffic.
func (m *SessionMux) Close() {
	m.link.Close()
	if m.rec != nil {
		m.rec.wg.Wait()
	}
}

// MuxSession is one session's view of the shared mesh: a transport.Net
// whose frames carry the session's route tag, with its own send ledger
// (endpoint.go) feeding the mux's one live view. Closing it detaches the
// session from the mux (late frames are dropped); it never closes the
// shared links.
type MuxSession struct {
	m       *SessionMux
	sid     string
	timeout time.Duration

	sendStats

	inbox []chan muxEnv
	// down[peer] fails this session's receives from one peer: the link
	// layer blamed the peer, or the session overran a budget of its own.
	down []downSignal

	// Journal-backed recovery state (nil/unused when j is nil): see
	// muxrecover.go. sendMu guards the send side (sequence counters,
	// replay suppression and the cursors peers reported), recvMu the
	// receive side (replay queues, the next-expected cursors and the
	// per-peer reorder stash).
	j           Journaler
	sendMu      sync.Mutex
	sendSeq     []uint64
	replaySends [][]JournalMsg
	resuming    []bool
	peerHas     []uint64
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
		s.resumeFrom(from, env)
		return
	}
	if _, failed := s.down[from].state(); failed != nil {
		return
	}
	select {
	case s.inbox[from] <- env:
	default:
		s.down[from].fail(fmt.Errorf("mux session %s: receive queue from party %d overflowed its %d-frame budget", s.sid, from, cap(s.inbox[from])))
	}
}

// Send implements Net: the frame rides the shared link tagged with this
// session's id. When the session has a timeout, the write carries it as
// a deadline so a stalled or dead peer surfaces as an error, not a
// blocked sender.
func (s *MuxSession) Send(round, from, to, bytes int, payload any) error {
	if err := checkEndpoints(s.m.n, s.m.me, from, to, "send"); err != nil {
		return err
	}
	// Count every logical send — including ones a journal replay
	// suppresses — so a restarted endpoint reports the same stats as a
	// fault-free run.
	s.count(from, round, bytes)
	if s.j != nil {
		return s.sendRecovering(round, to, bytes, payload)
	}
	return s.m.writeFrame(to, s.timeout, muxEnv{SID: s.sid, Kind: muxKindData, Round: round, Bytes: bytes, Payload: payload})
}

// RecvCtx implements Net. If round is non-negative the frame's round
// tag must match it. A failed peer surfaces as a typed AbortError
// carrying the first failure cause, after the frames queued before the
// failure; see Close for what a local close does to queued frames.
func (s *MuxSession) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if err := checkEndpoints(s.m.n, s.m.me, to, from, "receive"); err != nil {
		return nil, err
	}
	take := func(env muxEnv) (any, bool, error) { return takeRound(from, round, env.Round, env.Payload) }
	if s.j != nil {
		if payload, done, err := s.replayRecv(from, round); done || err != nil {
			return payload, err
		}
		take = func(env muxEnv) (any, bool, error) { return s.filterFrame(from, round, env) }
	}
	return recvWait(ctx, from, round, s.timeout, s.closeCh, s.m.Done(), s.inbox[from], &s.down[from], take)
}

// Broadcast implements Net, best-effort: every leg is attempted even
// when one fails, so a single dead peer does not keep this party's
// message from the survivors (who could otherwise mis-attribute the
// failure to this party). The first error is returned after all legs.
func (s *MuxSession) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(s.m.n, s.m.me, func(to int) error {
		return s.Send(round, from, to, bytes, payload)
	})
}

// Close detaches the session from the mux. Late frames tagged with its
// id are dropped, and so is everything still in its receive queues: a
// session closed locally answers every receive with ErrClosed before it
// looks at a queue. (A peer or link failure is the opposite case: it
// drains the frames queued before it first, like buffered TCP data
// before EOF.) The shared links stay up for every other session. Safe
// to call more than once.
func (s *MuxSession) Close() {
	s.closeOnce.Do(func() {
		close(s.closeCh)
		s.m.retire(s.sid)
	})
}

// muxMetrics is the mux's telemetry bundle. Every handle is nil-safe
// (a nil registry hands out nil handles), so a daemon without telemetry
// pays one nil check per event.
type muxMetrics struct {
	redials  *telemetry.CounterVec
	connects *telemetry.CounterVec
	linkUp   *telemetry.GaugeVec
	hbRTT    *telemetry.Histogram

	dataFrames   *telemetry.Counter
	ctrlFrames   *telemetry.Counter
	opened       *telemetry.Counter
	closed       *telemetry.Counter
	pendingDrops *telemetry.Counter
	lateFrames   *telemetry.Counter
	resumeFrames *telemetry.Counter
	retransmits  *telemetry.Counter

	// active mirrors the open-session count into a gauge; the count is
	// kept here because telemetry gauges only support Set.
	activeN atomic.Int64
	active  *telemetry.Gauge
}

func newMuxMetrics(reg *telemetry.Registry) *muxMetrics {
	return &muxMetrics{
		redials:  reg.CounterVec("mux_link_redials_total", "Dial attempts per peer, including initial mesh formation.", "peer"),
		connects: reg.CounterVec("mux_link_connects_total", "Mux link establishments per peer — stays at 1 per peer for the daemon's lifetime when sessions truly share the connection.", "peer"),
		linkUp:   reg.GaugeVec("mux_link_up", "Mux link state per peer: 1 connected, 0 down.", "peer"),
		hbRTT: reg.Histogram("transport_heartbeat_rtt_seconds",
			"Heartbeat round-trip time per recovering link.",
			telemetry.ExpBuckets(0.0001, 4, 10)), // 100µs .. ~26s
		dataFrames:   reg.Counter("mux_data_frames_total", "Session data frames received over all mux links."),
		ctrlFrames:   reg.Counter("mux_control_frames_total", "Control-plane frames received over all mux links."),
		opened:       reg.Counter("mux_sessions_opened_total", "Sessions opened on this mux."),
		closed:       reg.Counter("mux_sessions_closed_total", "Sessions closed on this mux."),
		pendingDrops: reg.Counter("mux_pending_dropped_total", "Frames dropped because a not-yet-opened session overran its pending buffer."),
		lateFrames:   reg.Counter("mux_late_frames_total", "Frames dropped because their session was already closed."),
		resumeFrames: reg.Counter("mux_resume_frames_total", "Resume (retransmission request) frames received over all mux links."),
		retransmits:  reg.Counter("mux_retransmit_frames_total", "Session frames re-served from a journal after a resume request."),
		active:       reg.Gauge("mux_sessions_active", "Sessions currently open on this mux."),
	}
}

// linkMetrics is the per-peer slice of the bundle the link layer feeds.
// The zero value (telemetry disabled) is fully inert.
type linkMetrics struct {
	redials  *telemetry.Counter
	connects *telemetry.Counter
	linkUp   *telemetry.Gauge
}

func (mm *muxMetrics) link(peer int) linkMetrics {
	p := strconv.Itoa(peer)
	return linkMetrics{redials: mm.redials.With(p), connects: mm.connects.With(p), linkUp: mm.linkUp.With(p)}
}

// onSessionOpen / onSessionClose keep the active-session gauge.
func (mm *muxMetrics) onSessionOpen() {
	mm.opened.Inc()
	mm.active.Set(float64(mm.activeN.Add(1)))
}

func (mm *muxMetrics) onSessionClose() {
	mm.closed.Inc()
	mm.active.Set(float64(mm.activeN.Add(-1)))
}
