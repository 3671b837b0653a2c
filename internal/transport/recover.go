package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"groupranking/internal/telemetry"
	"groupranking/internal/wirecodec"
)

// This file implements the crash-recovery transport: a TCP mesh whose
// endpoints survive peer restarts and transient disconnects instead of
// aborting. Three mechanisms compose, all invisible to the protocol
// layers above Net:
//
//   - a session handshake: every connection opens with an rhello frame
//     pinning (sessionID, party, epoch, next-expected seq), so a
//     replacement connection resumes the link exactly where the old one
//     left off and stale or misconfigured connections are rejected;
//   - reliable delivery: every data frame carries a per-link sequence
//     number; senders keep a bounded retransmit buffer trimmed by
//     cumulative acks (piggybacked on every frame and on heartbeats),
//     retransmit un-acked frames after a reconnect, and receivers
//     suppress duplicates, so each logical message is delivered to the
//     protocol exactly once and in order;
//   - liveness: heartbeats distinguish a slow peer (connection up,
//     frames flowing — keep waiting) from a dead one (connection down);
//     blame is assigned only after the peer has failed to reconnect for
//     a full grace window, and the receive-side timeout still bounds
//     every wait, so a peer that never returns aborts the session
//     exactly as the plain TCPFabric would.
//
// With a Journaler attached the fabric is additionally durable: sends
// are journaled before the first wire write (write-ahead), receives are
// journaled before they are acknowledged, and a restarted process
// replays journaled receives to its deterministic recomputation without
// touching the network, resuming live at the first un-journaled
// message.

// Sentinel causes specific to the recovery runtime.
var (
	// ErrRetransmitOverflow: a peer was unreachable for so long that the
	// bounded retransmit buffer filled up.
	ErrRetransmitOverflow = errors.New("transport: retransmit buffer overflow")
	// ErrReplayDiverged: a restarted party's recomputation produced a
	// different message sequence than its journal — the process was
	// restarted with a different seed, flags or binary.
	ErrReplayDiverged = errors.New("transport: journal replay diverged from recomputation")
	// ErrDesync: a peer's frame sequence had a gap, which the retransmit
	// protocol makes impossible for a correct peer.
	ErrDesync = errors.New("transport: link sequence desynchronised")
)

// JournalMsg is one journaled protocol message, as the recovery fabric
// exchanges them with a Journaler.
type JournalMsg struct {
	Round   int
	Seq     uint64
	Bytes   int
	Payload any
}

// Journaler is the durable write-ahead log the recovery fabric records
// protocol messages into (implemented by internal/journal). LogSend is
// called before a message's first wire write; LogRecv before a received
// message is acknowledged. SentTo/RecvFrom replay a previous process's
// records on restart. Implementations must be safe for concurrent use.
type Journaler interface {
	LogSend(peer, round, bytes int, seq uint64, payload any) error
	LogRecv(peer, round, bytes int, seq uint64, payload any) error
	SentTo(peer int) ([]JournalMsg, error)
	RecvFrom(peer int) ([]JournalMsg, error)
}

// RecoverOptions configures a RecoveringTCPFabric.
type RecoverOptions struct {
	// SessionID names the protocol session; all parties must agree (the
	// deployment layer derives it from the pinned session parameters).
	// Connections announcing a different session are rejected.
	SessionID string
	// Epoch is this process's journal epoch (1 = first run), carried in
	// the handshake so peers reject stale connections from before a
	// restart.
	Epoch int
	// Journal, when non-nil, makes the session durable across process
	// crashes. Nil gives reconnect-only recovery (transient disconnects
	// heal; a process restart desynchronises and aborts cleanly).
	Journal Journaler
	// Heartbeat is the idle-link heartbeat interval (default 250ms;
	// negative disables heartbeats and the read-deadline liveness
	// check).
	Heartbeat time.Duration
	// Grace is how long a disconnected peer may take to reconnect before
	// blame is assigned and receives from it abort with ErrPeerDown
	// (default 15s).
	Grace time.Duration
	// RetransmitLimit bounds the per-peer un-acked send buffer
	// (default 16384 frames).
	RetransmitLimit int
	// MeshTimeout bounds initial mesh formation (default 10s).
	MeshTimeout time.Duration
	// Telemetry, when non-nil, feeds the live metrics registry: redials,
	// reconnects, retransmissions, ack lag, heartbeat RTT and per-round
	// wall time. Nil disables instrumentation at zero cost.
	Telemetry *telemetry.Registry
}

func (o RecoverOptions) withDefaults() RecoverOptions {
	if o.Heartbeat == 0 {
		o.Heartbeat = 250 * time.Millisecond
	}
	if o.Grace <= 0 {
		o.Grace = 15 * time.Second
	}
	if o.RetransmitLimit <= 0 {
		o.RetransmitLimit = 1 << 14
	}
	if o.MeshTimeout <= 0 {
		o.MeshTimeout = dialDeadline
	}
	return o
}

// Redial backoff for re-establishing a lost link (distinct from the
// initial-dial constants in tcp.go: reconnects may wait much longer,
// so the cap is higher).
const (
	redialBackoffBase = 10 * time.Millisecond
	redialBackoffMax  = time.Second
)

// Frame kinds on a recovery link.
const (
	frameData uint8 = iota + 1
	frameHeartbeat
	frameAck
)

// rhello opens every connection, in both directions: the dialer sends
// its hello, the accepter validates it and replies with its own. Each
// side then retransmits its buffered frames from the peer's
// NextExpected onward.
type rhello struct {
	SessionID    string
	Party        int
	Epoch        int
	NextExpected uint64
}

// renv is the recovery link's wire frame. Ack piggybacks the sender's
// cumulative receive progress on every frame. T/EchoT implement the
// heartbeat RTT probe on frames the link exchanges anyway: a heartbeat
// stamps T with the sender's clock, the receiver echoes it back in the
// EchoT of its ack, and the original sender — reading its own clock
// again — observes the round trip. No extra frames, no protocol-stat
// drift (control frames are never counted).
type renv struct {
	Kind    uint8
	Round   int
	Seq     uint64
	Bytes   int
	Ack     uint64
	T       int64 // heartbeat send time (sender's unix nanos), 0 otherwise
	EchoT   int64 // echoed T from the heartbeat being acknowledged
	Payload any
}

// rlink is the per-peer state of one recovery link: the live
// connection (if any), the retransmit buffer, sequence counters, the
// journal replay queues, and the blame machinery.
type rlink struct {
	peer int

	mu        sync.Mutex
	conn      net.Conn
	up        bool
	peerEpoch int

	sendSeq uint64 // seq assigned to the next new data frame
	acked   uint64 // everything below this is delivered and trimmed
	buf     []renv // un-acked data frames, ascending seq

	recvNext uint64 // next data seq expected from the peer

	replaySends []JournalMsg // journaled sends not yet re-issued by the recomputation
	replayRecvs []JournalMsg // journaled receives not yet consumed by the recomputation

	// blame is closed when the peer has been down for a full grace
	// window (a fresh channel is installed on every reconnect);
	// blameCancel stops the pending grace timer.
	blame       chan struct{}
	blameCancel chan struct{}
	fatal       error // unrecoverable link error (desync, replay divergence)

	// downNotify wakes the dialer-side maintainer to redial.
	downNotify chan struct{}

	// Liveness telemetry, guarded by mu like the link state it mirrors.
	lastContact time.Time     // last frame of any kind from the peer
	lastRTT     time.Duration // most recent heartbeat round trip
	tm          linkMetrics
}

// RecoveringTCPFabric implements Net over a self-healing TCP mesh with
// optional journal-backed crash recovery. See the file comment for the
// mechanism; see NewTCPFabric for the plain fail-fast mesh.
type RecoveringTCPFabric struct {
	n, me   int
	addrs   []string
	timeout time.Duration
	opts    RecoverOptions

	links []*rlink
	inbox []chan renv
	tm    *netMetrics

	ln net.Listener

	mu        sync.Mutex
	msgs      int64
	bytes     int64
	maxRound  int
	rounds    map[int]RoundStats
	echoMsgs  int64
	echoBytes int64

	closeOnce sync.Once
	closeCh   chan struct{}
	wg        sync.WaitGroup
}

var _ Net = (*RecoveringTCPFabric)(nil)

// NewRecoveringTCPFabric builds party me's endpoint of an n-party
// recovery mesh. Topology matches NewTCPFabric: the endpoint listens on
// addrs[me], dials every lower-indexed party and accepts from every
// higher-indexed one — and keeps doing both for the fabric's lifetime,
// so severed links heal and restarted peers rejoin. timeout bounds each
// receive wait and each write, exactly as on the plain fabric.
func NewRecoveringTCPFabric(addrs []string, me int, timeout time.Duration, opts RecoverOptions) (*RecoveringTCPFabric, error) {
	n := len(addrs)
	if n < 2 {
		return nil, fmt.Errorf("transport: tcp mesh needs at least two parties")
	}
	if me < 0 || me >= n {
		return nil, fmt.Errorf("transport: party index %d out of range", me)
	}
	if err := validateMeshAddrs(addrs); err != nil {
		return nil, err
	}
	if opts.SessionID == "" {
		return nil, fmt.Errorf("transport: recovery mesh needs a session ID")
	}
	if opts.Epoch < 1 {
		opts.Epoch = 1
	}
	opts = opts.withDefaults()
	f := &RecoveringTCPFabric{
		n: n, me: me,
		addrs:   addrs,
		timeout: timeout,
		opts:    opts,
		links:   make([]*rlink, n),
		inbox:   make([]chan renv, n),
		rounds:  make(map[int]RoundStats),
		closeCh: make(chan struct{}),
	}
	f.tm = newNetMetrics(opts.Telemetry)
	for peer := 0; peer < n; peer++ {
		if peer == me {
			continue
		}
		l := &rlink{
			peer:       peer,
			blame:      make(chan struct{}),
			downNotify: make(chan struct{}, 1),
			tm:         f.tm.link(peer),
		}
		if opts.Journal != nil {
			sent, err := opts.Journal.SentTo(peer)
			if err != nil {
				return nil, err
			}
			recv, err := opts.Journal.RecvFrom(peer)
			if err != nil {
				return nil, err
			}
			l.sendSeq = uint64(len(sent))
			l.replaySends = sent
			l.recvNext = uint64(len(recv))
			l.replayRecvs = recv
			// Every journaled send goes back into the retransmit buffer;
			// the reconnect handshake trims the prefix each peer already
			// has, and only the remainder is retransmitted.
			for _, m := range sent {
				l.buf = append(l.buf, renv{Kind: frameData, Round: m.Round, Seq: m.Seq, Bytes: m.Bytes, Payload: m.Payload})
			}
			l.tm.ackLag.Set(float64(len(l.buf)))
		}
		f.links[peer] = l
		f.inbox[peer] = make(chan renv, 4096)
	}

	ln, err := net.Listen("tcp", addrs[me])
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addrs[me], err)
	}
	f.ln = ln

	f.wg.Add(1)
	go f.acceptLoop()
	for peer := 0; peer < me; peer++ {
		f.wg.Add(1)
		go f.maintain(f.links[peer])
	}
	if opts.Heartbeat > 0 {
		f.wg.Add(1)
		go f.heartbeatLoop()
	}

	// Mesh formation. A first run (epoch 1) requires every link up
	// before the protocol starts. A restarted process must not: peers
	// that already finished their role and drained may be gone for good,
	// and everything they ever sent is replayable from the journal — so
	// links come up lazily as peers accept or redial, and each link
	// still down starts its grace clock immediately (a peer that neither
	// reconnects nor is fully journaled gets blamed, not waited on
	// forever).
	if opts.Epoch > 1 {
		for _, l := range f.links {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if !l.up {
				f.armBlameLocked(l)
			}
			l.mu.Unlock()
		}
		return f, nil
	}
	deadline := time.Now().Add(opts.MeshTimeout)
	for {
		if f.allUp() {
			return f, nil
		}
		if time.Now().After(deadline) {
			missing := f.downPeers()
			f.Close()
			return nil, fmt.Errorf("transport: recovery mesh formation timed out; peers not connected: %v", missing)
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-f.closeCh:
			return nil, fmt.Errorf("transport: fabric closed during mesh formation")
		}
	}
}

func (f *RecoveringTCPFabric) allUp() bool {
	for _, l := range f.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		up := l.up
		l.mu.Unlock()
		if !up {
			return false
		}
	}
	return true
}

func (f *RecoveringTCPFabric) downPeers() []int {
	var out []int
	for _, l := range f.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if !l.up {
			out = append(out, l.peer)
		}
		l.mu.Unlock()
	}
	return out
}

// Health reports the live state of every peer link for the /healthz
// endpoint: connected, reconnecting (down but within the grace
// window), or dead (blame assigned or the link hit a fatal error).
func (f *RecoveringTCPFabric) Health() []telemetry.PeerHealth {
	out := make([]telemetry.PeerHealth, 0, f.n-1)
	for _, l := range f.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		h := telemetry.PeerHealth{Peer: l.peer, LastContactMS: -1}
		if !l.lastContact.IsZero() {
			h.LastContactMS = time.Since(l.lastContact).Milliseconds()
		}
		if l.lastRTT > 0 {
			h.HeartbeatRTTMS = float64(l.lastRTT) / float64(time.Millisecond)
		}
		switch {
		case l.fatal != nil:
			h.State = telemetry.StateDead
		case l.up:
			h.State = telemetry.StateConnected
		default:
			h.State = telemetry.StateReconnecting
			select {
			case <-l.blame:
				h.State = telemetry.StateDead
			default:
			}
		}
		l.mu.Unlock()
		out = append(out, h)
	}
	return out
}

// acceptLoop accepts connections from higher-indexed peers for the
// fabric's lifetime, so a peer that loses its link (or restarts) can
// always dial back in.
func (f *RecoveringTCPFabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			select {
			case <-f.closeCh:
				return
			default:
			}
			// Transient accept failure: a malformed client must not kill
			// the accept loop for the whole session.
			select {
			case <-time.After(10 * time.Millisecond):
				continue
			case <-f.closeCh:
				return
			}
		}
		f.wg.Add(1)
		go f.handleAccept(conn)
	}
}

// handleAccept runs the accept side of the session handshake: read the
// dialer's hello, validate it, reply, then attach.
func (f *RecoveringTCPFabric) handleAccept(conn net.Conn) {
	defer f.wg.Done()
	conn.SetDeadline(time.Now().Add(handshakeDeadline))
	rd := bufio.NewReader(conn)
	v, err := wirecodec.ReadValue(rd)
	if err != nil {
		conn.Close()
		return
	}
	hello, ok := v.(rhello)
	if !ok || hello.SessionID != f.opts.SessionID || hello.Party <= f.me || hello.Party >= f.n {
		conn.Close()
		return
	}
	l := f.links[hello.Party]
	l.mu.Lock()
	mine := rhello{SessionID: f.opts.SessionID, Party: f.me, Epoch: f.opts.Epoch, NextExpected: l.recvNext}
	l.mu.Unlock()
	if err := wirecodec.WriteValue(conn, mine); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	f.attach(l, conn, rd, hello)
}

// maintain owns the dial side of one link (to a lower-indexed peer): it
// dials with exponential backoff and jitter, runs the handshake, and
// redials whenever the link goes down — forever, until the fabric
// closes (receivers decide blame; the dialer just keeps trying).
func (f *RecoveringTCPFabric) maintain(l *rlink) {
	defer f.wg.Done()
	jitter := rand.New(rand.NewSource(int64(f.me)<<20 ^ int64(l.peer)<<4 ^ int64(f.opts.Epoch)))
	backoff := redialBackoffBase
	for {
		select {
		case <-f.closeCh:
			return
		default:
		}
		if f.dialPeer(l) {
			backoff = redialBackoffBase
			select {
			case <-f.closeCh:
				return
			case <-l.downNotify:
				continue
			}
		}
		// Sleep backoff ± 50% jitter, then double up to the cap.
		d := backoff/2 + time.Duration(jitter.Int63n(int64(backoff)))
		select {
		case <-time.After(d):
		case <-f.closeCh:
			return
		}
		if backoff *= 2; backoff > redialBackoffMax {
			backoff = redialBackoffMax
		}
	}
}

// dialPeer attempts one connection + handshake to a lower-indexed peer.
func (f *RecoveringTCPFabric) dialPeer(l *rlink) bool {
	l.tm.redials.Inc()
	conn, err := net.DialTimeout("tcp", f.addrs[l.peer], handshakeDeadline)
	if err != nil {
		return false
	}
	conn.SetDeadline(time.Now().Add(handshakeDeadline))
	l.mu.Lock()
	mine := rhello{SessionID: f.opts.SessionID, Party: f.me, Epoch: f.opts.Epoch, NextExpected: l.recvNext}
	l.mu.Unlock()
	if err := wirecodec.WriteValue(conn, mine); err != nil {
		conn.Close()
		return false
	}
	rd := bufio.NewReader(conn)
	v, err := wirecodec.ReadValue(rd)
	if err != nil {
		conn.Close()
		return false
	}
	hello, ok := v.(rhello)
	if !ok || hello.SessionID != f.opts.SessionID || hello.Party != l.peer {
		conn.Close()
		return false
	}
	conn.SetDeadline(time.Time{})
	return f.attach(l, conn, rd, hello)
}

// attach installs a handshaken connection on its link: it rejects
// stale epochs, replaces any previous connection, trims the retransmit
// buffer to the peer's next-expected seq, retransmits the rest in
// order, clears pending blame, and starts the reader pump.
func (f *RecoveringTCPFabric) attach(l *rlink, conn net.Conn, rd *bufio.Reader, hello rhello) bool {
	l.mu.Lock()
	if hello.Epoch < l.peerEpoch {
		// A connection from before the peer's restart, delivered late.
		l.mu.Unlock()
		conn.Close()
		return false
	}
	l.peerEpoch = hello.Epoch
	if l.conn != nil {
		l.conn.Close() // the old pump exits; markDown ignores the stale conn
	}
	l.conn = conn
	// The peer holds everything below NextExpected; treat it as acked.
	l.trimAckLocked(hello.NextExpected)
	// Retransmit the remainder before any new traffic, preserving order.
	for _, env := range l.buf {
		if f.timeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(f.timeout))
		}
		if err := wirecodec.WriteValue(conn, env); err != nil {
			l.conn = nil
			l.mu.Unlock()
			conn.Close()
			return false
		}
	}
	conn.SetWriteDeadline(time.Time{})
	l.up = true
	l.tm.connects.Inc()
	l.tm.retransmits.Add(int64(len(l.buf)))
	l.tm.linkUp.Set(1)
	// A reconnect within the grace window cancels pending blame.
	if l.blameCancel != nil {
		close(l.blameCancel)
		l.blameCancel = nil
	}
	l.blame = make(chan struct{})
	l.mu.Unlock()

	f.wg.Add(1)
	go f.pump(l, conn, rd)
	return true
}

// markDown records a lost connection and arms the blame timer: if the
// peer does not reconnect within the grace window, receives from it
// fail with ErrPeerDown. Stale connections (already replaced) are
// ignored.
func (f *RecoveringTCPFabric) markDown(l *rlink, conn net.Conn) {
	l.mu.Lock()
	f.markDownLocked(l, conn)
	l.mu.Unlock()
}

func (f *RecoveringTCPFabric) markDownLocked(l *rlink, conn net.Conn) {
	if l.conn != conn || conn == nil {
		return
	}
	conn.Close()
	l.conn = nil
	l.up = false
	l.tm.linkUp.Set(0)
	f.armBlameLocked(l)
	select {
	case l.downNotify <- struct{}{}:
	default:
	}
}

// armBlameLocked starts the grace clock for a down link (idempotent per
// outage): if the peer is still away when it expires, receives from it
// are blamed. A reconnect cancels it (attach).
func (f *RecoveringTCPFabric) armBlameLocked(l *rlink) {
	if l.blameCancel != nil {
		return
	}
	cancel := make(chan struct{})
	l.blameCancel = cancel
	blame := l.blame
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTimer(f.opts.Grace)
		defer t.Stop()
		select {
		case <-t.C:
			close(blame)
		case <-cancel:
		case <-f.closeCh:
		}
	}()
}

// fatalLocked records an unrecoverable link error and releases every
// waiter immediately (no grace: the error is protocol-level, not a
// transient outage).
func (f *RecoveringTCPFabric) fatalLocked(l *rlink, err error) {
	if l.fatal == nil {
		l.fatal = err
	}
	if conn := l.conn; conn != nil {
		conn.Close()
		l.conn = nil
	}
	l.up = false
	l.tm.linkUp.Set(0)
	select {
	case <-l.blame:
	default:
		close(l.blame)
	}
}

// pump reads frames off one connection until it dies. With heartbeats
// enabled a read deadline of several intervals doubles as the liveness
// check: a connection that goes silent (severed link, frozen peer) is
// torn down and enters the redial/grace path.
func (f *RecoveringTCPFabric) pump(l *rlink, conn net.Conn, rd *bufio.Reader) {
	defer f.wg.Done()
	for {
		if f.opts.Heartbeat > 0 {
			conn.SetReadDeadline(time.Now().Add(4*f.opts.Heartbeat + time.Second))
		}
		v, err := wirecodec.ReadValue(rd)
		var unknown *wirecodec.UnknownTypeError
		if errors.As(err, &unknown) {
			// Not an outage: the peer's program sent a type this build
			// has no codec for, and a redial would only fetch more.
			l.mu.Lock()
			f.fatalLocked(l, fmt.Errorf("%w: party %d: %w", ErrDesync, l.peer, err))
			l.mu.Unlock()
			return
		}
		if err != nil {
			f.markDown(l, conn)
			return
		}
		env, ok := v.(renv)
		if !ok {
			// A peer speaking the right session but the wrong frame type
			// is beyond a redial's help; the desync path names it.
			l.mu.Lock()
			f.fatalLocked(l, fmt.Errorf("%w: party %d sent a %T frame, want recovery envelope",
				ErrDesync, l.peer, v))
			l.mu.Unlock()
			return
		}
		if !f.handleFrame(l, env) {
			return
		}
	}
}

// handleFrame processes one decoded frame; false stops the pump.
func (f *RecoveringTCPFabric) handleFrame(l *rlink, env renv) bool {
	now := time.Now()
	l.mu.Lock()
	l.lastContact = now
	l.trimAckLocked(env.Ack)
	if env.EchoT != 0 {
		// Our own heartbeat stamp coming back: both clock reads are ours,
		// so the difference is a true round trip (guarded against a wall
		// clock stepping backwards between them).
		if rtt := now.Sub(time.Unix(0, env.EchoT)); rtt >= 0 {
			l.lastRTT = rtt
			f.tm.observeRTT(rtt)
		}
	}
	if env.Kind != frameData {
		reply := renv{}
		if env.Kind == frameHeartbeat && env.T != 0 {
			reply = renv{Kind: frameAck, Ack: l.recvNext, EchoT: env.T}
		}
		l.mu.Unlock()
		if reply.Kind != 0 {
			f.sendControl(l, reply)
		}
		return true
	}
	switch {
	case env.Seq == l.recvNext:
		if f.opts.Journal != nil {
			// Journal before delivering or acking: an un-journaled message
			// is still owed by the peer after a crash, never lost.
			if err := f.opts.Journal.LogRecv(l.peer, env.Round, env.Bytes, env.Seq, env.Payload); err != nil {
				f.fatalLocked(l, err)
				l.mu.Unlock()
				return false
			}
		}
		l.recvNext++
		ack := l.recvNext
		// Deliver under the lock so racing pumps (old + replacement
		// connection) cannot reorder the inbox.
		select {
		case f.inbox[l.peer] <- env:
		case <-f.closeCh:
			l.mu.Unlock()
			return false
		}
		l.mu.Unlock()
		f.sendControl(l, renv{Kind: frameAck, Ack: ack})
	case env.Seq < l.recvNext:
		// Duplicate (redial race or over-eager retransmit): suppress, and
		// re-ack so the peer can trim.
		ack := l.recvNext
		l.mu.Unlock()
		f.sendControl(l, renv{Kind: frameAck, Ack: ack})
	default:
		// A gap is impossible for a correct peer (retransmission resumes
		// exactly at our NextExpected): the link is beyond repair.
		f.fatalLocked(l, fmt.Errorf("%w: party %d jumped to seq %d, expected %d",
			ErrDesync, l.peer, env.Seq, l.recvNext))
		l.mu.Unlock()
		return false
	}
	return true
}

// trimAckLocked drops retransmit-buffer frames the peer has
// acknowledged (cumulative, so stale acks are no-ops).
func (l *rlink) trimAckLocked(ack uint64) {
	if ack <= l.acked {
		return
	}
	l.acked = ack
	i := 0
	for i < len(l.buf) && l.buf[i].Seq < ack {
		i++
	}
	l.buf = append([]renv(nil), l.buf[i:]...)
	l.tm.ackLag.Set(float64(len(l.buf)))
}

// sendControl writes a heartbeat or ack frame, best-effort: control
// frames carry no protocol payload, so a failed write just tears the
// connection down into the normal redial path.
func (f *RecoveringTCPFabric) sendControl(l *rlink, env renv) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.up || l.conn == nil {
		return
	}
	if f.timeout > 0 {
		l.conn.SetWriteDeadline(time.Now().Add(f.timeout))
		defer func() {
			if l.conn != nil {
				l.conn.SetWriteDeadline(time.Time{})
			}
		}()
	}
	if err := wirecodec.WriteValue(l.conn, env); err != nil {
		f.markDownLocked(l, l.conn)
	}
}

// heartbeatLoop keeps every link warm: each interval it sends a
// heartbeat carrying the cumulative ack, so idle links prove liveness
// and peers trim their retransmit buffers promptly.
func (f *RecoveringTCPFabric) heartbeatLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-f.closeCh:
			return
		case <-t.C:
			for _, l := range f.links {
				if l == nil {
					continue
				}
				l.mu.Lock()
				ack := l.recvNext
				l.mu.Unlock()
				f.sendControl(l, renv{Kind: frameHeartbeat, Ack: ack, T: time.Now().UnixNano()})
			}
		}
	}
}

// N implements Net.
func (f *RecoveringTCPFabric) N() int { return f.n }

// Send implements Net. A send to a disconnected peer is buffered and
// retransmitted on reconnect, so connection loss is invisible here;
// the only failures are a full retransmit buffer, a journal error, or
// a replay divergence. During a journal replay, sends the previous
// process already journaled are suppressed (they are already in the
// retransmit buffer) after a determinism check against the journal.
func (f *RecoveringTCPFabric) Send(round, from, to, bytes int, payload any) error {
	if from != f.me {
		return fmt.Errorf("transport: tcp party %d cannot send as %d", f.me, from)
	}
	if to < 0 || to >= f.n || to == f.me {
		return fmt.Errorf("transport: invalid destination %d", to)
	}
	// Count every logical send — including replayed ones — so a
	// restarted endpoint reports the same stats as a fault-free run.
	// Echo sub-round traffic is consistency-layer overhead, tallied
	// apart from the protocol counters.
	f.mu.Lock()
	newRound := false
	if IsEchoRound(round) {
		f.echoMsgs++
		f.echoBytes += int64(bytes)
	} else {
		f.msgs++
		f.bytes += int64(bytes)
		if round > f.maxRound {
			f.maxRound = round
		}
		rs, seen := f.rounds[round]
		newRound = !seen
		rs.Messages++
		rs.Bytes += int64(bytes)
		f.rounds[round] = rs
	}
	f.tm.onSendLocked(round, bytes, newRound)
	f.mu.Unlock()

	l := f.links[to]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fatal != nil {
		return Abort(to, round, "", l.fatal)
	}
	if len(l.replaySends) > 0 {
		exp := l.replaySends[0]
		l.replaySends = l.replaySends[1:]
		if exp.Round != round {
			err := fmt.Errorf("%w: recomputed send to party %d has round %d, journal recorded %d (restarted with different flags or seed?)",
				ErrReplayDiverged, to, round, exp.Round)
			f.fatalLocked(l, err)
			return Abort(to, round, "", err)
		}
		return nil
	}
	seq := l.sendSeq
	env := renv{Kind: frameData, Round: round, Seq: seq, Bytes: bytes, Ack: l.recvNext, Payload: payload}
	// Encode before anything is journaled or buffered: a frame with no
	// wire form must never enter the journal or the retransmit buffer,
	// where every reconnect would fail on it until the healthy peer is
	// blamed.
	frame, err := wirecodec.Marshal(env)
	if err != nil {
		return encodeFault(to, round, err)
	}
	if f.opts.Journal != nil {
		// Write-ahead: once journaled, the message survives a crash of
		// this process and is retransmitted from the reloaded buffer.
		if err := f.opts.Journal.LogSend(to, round, bytes, seq, payload); err != nil {
			return Abort(to, round, "", err)
		}
	}
	l.sendSeq++
	if len(l.buf) >= f.opts.RetransmitLimit {
		return Abort(to, round, "", fmt.Errorf("%w: %d un-acked messages to party %d",
			ErrRetransmitOverflow, len(l.buf), to))
	}
	l.buf = append(l.buf, env)
	l.tm.ackLag.Set(float64(len(l.buf)))
	if l.up && l.conn != nil {
		if f.timeout > 0 {
			l.conn.SetWriteDeadline(time.Now().Add(f.timeout))
		}
		if _, err := l.conn.Write(frame); err != nil {
			// Buffered already; the redial path retransmits it.
			f.markDownLocked(l, l.conn)
		} else if l.conn != nil {
			l.conn.SetWriteDeadline(time.Time{})
		}
	}
	return nil
}

// RecvCtx implements Net. Journaled receives are served first (the
// restarted recomputation consumes them without touching the network);
// live receives wait out disconnects up to the grace window before
// blaming the peer, and are bounded by ctx and the fabric timeout as
// on the plain fabric.
func (f *RecoveringTCPFabric) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if to != f.me {
		return nil, fmt.Errorf("transport: tcp party %d cannot receive as %d", f.me, to)
	}
	if from < 0 || from >= f.n || from == f.me {
		return nil, fmt.Errorf("transport: invalid source %d", from)
	}
	l := f.links[from]
	l.mu.Lock()
	if len(l.replayRecvs) > 0 {
		m := l.replayRecvs[0]
		l.replayRecvs = l.replayRecvs[1:]
		l.mu.Unlock()
		if round >= 0 && m.Round != round {
			return nil, Abort(from, round, "", fmt.Errorf(
				"%w: recomputation expects round %d from party %d, journal recorded %d (restarted with different flags or seed?)",
				ErrReplayDiverged, round, from, m.Round))
		}
		return m.Payload, nil
	}
	l.mu.Unlock()

	var timerC <-chan time.Time
	if f.timeout > 0 {
		tm := time.NewTimer(f.timeout)
		defer tm.Stop()
		timerC = tm.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	q := f.inbox[from]
	for {
		// Drain preference: frames already delivered beat any failure
		// signal, like buffered TCP data before EOF.
		select {
		case env := <-q:
			return f.acceptData(env, from, round)
		default:
		}
		l.mu.Lock()
		blame := l.blame
		fatal := l.fatal
		l.mu.Unlock()
		if fatal != nil {
			select {
			case env := <-q:
				return f.acceptData(env, from, round)
			default:
			}
			return nil, Abort(from, round, "", fatal)
		}
		select {
		case env := <-q:
			return f.acceptData(env, from, round)
		case <-blame:
			select {
			case env := <-q:
				return f.acceptData(env, from, round)
			default:
			}
			l.mu.Lock()
			up, cur, fatal := l.up, l.blame, l.fatal
			l.mu.Unlock()
			if fatal != nil {
				return nil, Abort(from, round, "", fatal)
			}
			if up || cur != blame {
				continue // the peer reconnected while we waited
			}
			return nil, Abort(from, round, "", fmt.Errorf(
				"%w: party %d did not reconnect within the %v grace window",
				ErrPeerDown, from, f.opts.Grace))
		case <-done:
			return nil, Abort(from, round, "", ctx.Err())
		case <-timerC:
			return nil, Abort(from, round, "", ErrTimeout)
		case <-f.closeCh:
			return nil, Abort(from, round, "", ErrClosed)
		}
	}
}

func (f *RecoveringTCPFabric) acceptData(env renv, from, round int) (any, error) {
	if round >= 0 && env.Round != round {
		return nil, roundMismatchAbort(from, round, env.Round)
	}
	return env.Payload, nil
}

// Broadcast implements Net, best-effort like the other fabrics.
func (f *RecoveringTCPFabric) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(f.n, f.me, func(to int) error {
		return f.Send(round, from, to, bytes, payload)
	})
}

// GatherAllCtx implements Net.
func (f *RecoveringTCPFabric) GatherAllCtx(ctx context.Context, to, round int) ([]any, error) {
	return gatherAll(ctx, f, to, round)
}

// Stats reports this endpoint's logical protocol traffic in the same
// shape as TCPFabric.Stats. Control frames (heartbeats, acks, hellos)
// and retransmissions are transport overhead and are not counted, and
// replayed sends are counted once per logical send — so a recovered
// run reports exactly the stats of a fault-free one.
func (f *RecoveringTCPFabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		MessagesSent:   make([]int64, f.n),
		BytesSent:      make([]int64, f.n),
		MaxRound:       f.maxRound,
		DistinctRounds: len(f.rounds),
		PerRound:       make(map[int]RoundStats, len(f.rounds)),
		EchoMessages:   f.echoMsgs,
		EchoBytes:      f.echoBytes,
	}
	s.MessagesSent[f.me] = f.msgs
	s.BytesSent[f.me] = f.bytes
	for r, rs := range f.rounds {
		s.PerRound[r] = rs
	}
	return s
}

// Drain blocks until every frame this endpoint ever sent has been
// acknowledged by (and therefore durably received at) its peer, or
// until bound expires (bound ≤ 0 uses the grace window). While
// draining, the endpoint keeps accepting reconnects and retransmitting
// — so a party whose role has completed gives a crashed peer's
// replacement the full blame window to come back and collect what it
// missed, instead of taking the only copy of those messages down with
// it. Returns true when every link drained. Links with a fatal error
// are not waited on.
func (f *RecoveringTCPFabric) Drain(bound time.Duration) bool {
	if bound <= 0 {
		bound = f.opts.Grace
	}
	deadline := time.Now().Add(bound)
	for {
		if f.allAcked() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-f.closeCh:
			return f.allAcked()
		}
	}
}

func (f *RecoveringTCPFabric) allAcked() bool {
	for _, l := range f.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		pending := len(l.buf) > 0 && l.fatal == nil
		l.mu.Unlock()
		if pending {
			return false
		}
	}
	return true
}

// Close tears the endpoint down: the listener, every connection, and
// every maintainer, pump, heartbeat and blame-timer goroutine. Safe to
// call more than once and concurrently with protocol traffic
// (in-flight receives fail with ErrClosed).
func (f *RecoveringTCPFabric) Close() {
	f.closeOnce.Do(func() {
		close(f.closeCh)
		f.ln.Close()
		for _, l := range f.links {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
				l.conn = nil
			}
			l.up = false
			l.mu.Unlock()
		}
		f.wg.Wait()
	})
}
