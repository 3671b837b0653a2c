package transport

import (
	"context"
	"errors"
	"fmt"
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
//   - a recovering link (link.go, grace > 0): the hello pins (session,
//     party, epoch), lost links are redialed and re-accepted, and stale
//     or misconfigured connections are rejected; the first frame each
//     side sends on a new connection is an ack carrying its
//     next-expected seq, so the link resumes exactly where the old
//     connection left off;
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

// Frame kinds on a recovery link.
const (
	frameData uint8 = iota + 1
	frameHeartbeat
	frameAck
)

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

// rlink is the per-peer state of one recovery link: the retransmit
// buffer, sequence counters, the journal replay queues and the failure
// signal receives wait on. The connection itself belongs to the link
// layer; conn is the one it last reported up.
type rlink struct {
	peer int

	mu sync.Mutex
	// conn is the connection data frames are written on, and the one
	// whose read deadline the liveness check extends. It changes only
	// in onUp, together with live: data frames never jump from a lost
	// connection to a replacement that has not been resynchronised.
	conn net.Conn
	// live is set once the peer's cursor has arrived on conn and the
	// buffer past it has been retransmitted: only then may new sends go
	// straight to the wire, or they would overtake the retransmission
	// and open a sequence gap at the receiver.
	live bool

	sendSeq uint64 // seq assigned to the next new data frame
	acked   uint64 // everything below this is delivered and trimmed
	buf     []renv // un-acked data frames, ascending seq

	recvNext uint64 // next data seq expected from the peer

	replaySends []JournalMsg // journaled sends not yet re-issued by the recomputation
	replayRecvs []JournalMsg // journaled receives not yet consumed by the recomputation

	// down fails receives from the peer: for good on a fatal link error
	// (desync, replay divergence), until the peer reconnects when the
	// link layer blamed it for outstaying the grace.
	down  downSignal
	fatal error

	lastRTT time.Duration // most recent heartbeat round trip
	tm      linkMetrics
}

// RecoveringTCPFabric implements Net over a self-healing TCP mesh with
// optional journal-backed crash recovery. See the file comment for the
// mechanism; see NewTCPFabric for the plain fail-fast mesh.
type RecoveringTCPFabric struct {
	timeout time.Duration
	opts    RecoverOptions

	sendStats // also n, me and the live-metrics bundle tm

	mesh  *mesh
	links []*rlink
	inbox []chan renv

	wg sync.WaitGroup // the heartbeat loop
}

var _ Net = (*RecoveringTCPFabric)(nil)

// NewRecoveringTCPFabric builds party me's endpoint of an n-party
// recovery mesh. Topology matches NewTCPFabric: the endpoint listens on
// addrs[me], dials every lower-indexed party and accepts from every
// higher-indexed one — and keeps doing both for the fabric's lifetime,
// so severed links heal and restarted peers rejoin. timeout bounds each
// receive wait and each write, exactly as on the plain fabric.
func NewRecoveringTCPFabric(addrs []string, me int, timeout time.Duration, opts RecoverOptions) (*RecoveringTCPFabric, error) {
	if opts.SessionID == "" {
		return nil, fmt.Errorf("transport: recovery mesh needs a session ID")
	}
	if opts.Epoch < 1 {
		opts.Epoch = 1
	}
	opts = opts.withDefaults()
	n := len(addrs)
	f := &RecoveringTCPFabric{
		timeout: timeout,
		opts:    opts,
		links:   make([]*rlink, n),
		inbox:   make([]chan renv, n),
	}
	f.sendStats.init(n, me, opts.Telemetry)
	f.mesh = &mesh{
		addrs: addrs, me: me, tag: "session/" + opts.SessionID, epoch: opts.Epoch, grace: opts.Grace,
		tm:      f.tm.link,
		onFrame: f.onFrame, onUp: f.onUp, onBlame: f.onBlame,
	}
	for peer := 0; peer < n; peer++ {
		if peer == me {
			continue
		}
		l := &rlink{peer: peer, tm: f.tm.link(peer)}
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
			// the peer's cursor trims the prefix it already has, and only
			// the remainder is retransmitted.
			for _, m := range sent {
				l.buf = append(l.buf, renv{Kind: frameData, Round: m.Round, Seq: m.Seq, Bytes: m.Bytes, Payload: m.Payload})
			}
			l.tm.ackLag.Set(float64(len(l.buf)))
		}
		f.links[peer] = l
		f.inbox[peer] = make(chan renv, 4096) // the same receive budget as the in-memory Fabric's queues
	}
	if err := f.mesh.start(); err != nil {
		return nil, err
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
	// still down has been on its grace clock since start (a peer that
	// neither reconnects nor is fully journaled gets blamed, not waited
	// on forever).
	if opts.Epoch == 1 {
		if err := f.mesh.awaitUp(opts.MeshTimeout); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Health reports the live state of every peer link for the /healthz
// endpoint: connected, reconnecting (down but within the grace
// window), or dead (blame assigned or the link hit a fatal error).
func (f *RecoveringTCPFabric) Health() []telemetry.PeerHealth {
	out := f.mesh.Health()
	for i := range out {
		l := f.links[out[i].Peer]
		l.mu.Lock()
		if l.lastRTT > 0 {
			out[i].HeartbeatRTTMS = float64(l.lastRTT) / float64(time.Millisecond)
		}
		if l.fatal != nil {
			out[i].State = telemetry.StateDead
		}
		l.mu.Unlock()
	}
	return out
}

// onUp runs when the link layer installs a connection. New sends stay
// buffered until the peer's cursor arrives (handleFrame resynchronises
// on the first frame), and our own cursor goes out as the first frame,
// an ack, so the peer can do the same.
func (f *RecoveringTCPFabric) onUp(peer, _ int) {
	l := f.links[peer]
	l.mu.Lock()
	l.conn = f.mesh.conn(peer)
	l.live = false
	if l.fatal == nil {
		l.down.clear() // a reconnect withdraws the blame for the outage
	}
	f.extendLivenessLocked(l)
	ack := l.recvNext
	l.mu.Unlock()
	f.sendControl(l, renv{Kind: frameAck, Ack: ack})
}

// extendLivenessLocked pushes the connection's read deadline out by
// several heartbeat intervals. With heartbeats enabled the deadline
// doubles as the liveness check: a connection that goes silent (severed
// link, frozen peer) fails its pump's read and enters the link layer's
// redial/grace path.
func (f *RecoveringTCPFabric) extendLivenessLocked(l *rlink) {
	if f.opts.Heartbeat > 0 && l.conn != nil {
		l.conn.SetReadDeadline(time.Now().Add(4*f.opts.Heartbeat + time.Second))
	}
}

// onBlame runs when the peer stayed away for a full grace window:
// receives from it fail with ErrPeerDown until it reconnects. A frame
// of a type this build has no codec for is blamed at once and for good:
// the peer's program sent it, and a redial would only fetch more.
func (f *RecoveringTCPFabric) onBlame(peer int, err error) {
	l := f.links[peer]
	l.mu.Lock()
	defer l.mu.Unlock()
	var unknown *wirecodec.UnknownTypeError
	if errors.As(err, &unknown) {
		f.fatalLocked(l, fmt.Errorf("%w: %w", ErrDesync, err))
		return
	}
	l.down.fail(err)
}

// fatalLocked records an unrecoverable link error and releases every
// waiter immediately (no grace: the error is protocol-level, not a
// transient outage).
func (f *RecoveringTCPFabric) fatalLocked(l *rlink, err error) {
	if l.fatal == nil {
		l.fatal = err
	}
	l.live = false
	l.down.clear() // a fatal error overrides a standing grace blame
	l.down.fail(l.fatal)
	if l.conn != nil {
		l.conn.Close()
	}
}

// onFrame is the link layer's frame hook; an error takes the link down.
func (f *RecoveringTCPFabric) onFrame(peer int, v any) error {
	l := f.links[peer]
	env, ok := v.(renv)
	if !ok {
		// A peer speaking the right session but the wrong frame type
		// is beyond a redial's help; the desync path names it.
		err := fmt.Errorf("%w: party %d sent a %T frame, want recovery envelope", ErrDesync, peer, v)
		l.mu.Lock()
		f.fatalLocked(l, err)
		l.mu.Unlock()
		return err
	}
	if !f.handleFrame(l, env) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.fatal != nil {
			return l.fatal
		}
		return ErrClosed
	}
	return nil
}

// handleFrame processes one decoded frame; false stops the pump.
func (f *RecoveringTCPFabric) handleFrame(l *rlink, env renv) bool {
	now := time.Now()
	l.mu.Lock()
	f.extendLivenessLocked(l)
	l.trimAckLocked(env.Ack)
	if !l.live {
		f.resyncLocked(l)
	}
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
		case <-f.mesh.done():
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
		// exactly at our cursor): the link is beyond repair.
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

// resyncLocked runs on the first frame after a (re)connect, whose ack
// is the peer's cursor (already trimmed to): it retransmits the rest of
// the buffer in order, before any new traffic, and opens the link to
// live sends. A failed write has taken the link down; the next
// connection starts over.
func (f *RecoveringTCPFabric) resyncLocked(l *rlink) {
	for _, env := range l.buf {
		if f.mesh.writeOn(l.conn, l.peer, env.Round, f.timeout, env) != nil {
			return
		}
	}
	l.tm.retransmits.Add(int64(len(l.buf)))
	l.live = true
}

// sendControl writes a heartbeat or ack frame, best-effort: control
// frames carry no protocol payload, so a failed write just tears the
// connection down into the normal redial path.
func (f *RecoveringTCPFabric) sendControl(l *rlink, env renv) {
	_ = f.mesh.write(l.peer, 0, f.timeout, env)
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
		case <-f.mesh.done():
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
	if err := checkEndpoints(f.n, f.me, from, to, "send"); err != nil {
		return err
	}
	// Count every logical send — including replayed ones — so a
	// restarted endpoint reports the same stats as a fault-free run.
	f.count(round, bytes)

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
	if l.live {
		// Written under l.mu so frames reach the wire in sequence order.
		// Buffered already: if the write fails, the link goes down and
		// the next connection retransmits it.
		_ = f.mesh.writeOn(l.conn, to, round, f.timeout, frame)
	}
	return nil
}

// RecvCtx implements Net. Journaled receives are served first (the
// restarted recomputation consumes them without touching the network);
// live receives wait out disconnects up to the grace window before
// blaming the peer, and are bounded by ctx and the fabric timeout as
// on the plain fabric.
func (f *RecoveringTCPFabric) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if err := checkEndpoints(f.n, f.me, to, from, "receive"); err != nil {
		return nil, err
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
	return recvWait(ctx, from, round, f.timeout, f.mesh.done(), nil, f.inbox[from], &l.down,
		func(env renv) (any, bool, error) { return takeRound(from, round, env.Round, env.Payload) })
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
		case <-f.mesh.done():
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

// Close tears the endpoint down: the link layer (listener, connections,
// maintainers, pumps, grace timers) and the heartbeat loop. Safe to
// call more than once and concurrently with protocol traffic
// (in-flight receives fail with ErrClosed).
func (f *RecoveringTCPFabric) Close() {
	f.mesh.Close()
	f.wg.Wait()
}
