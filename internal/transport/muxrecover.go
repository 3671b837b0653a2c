package transport

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"groupranking/internal/wirecodec"
)

// Recovering mode for the SessionMux: the daemon-grade generalization of
// RecoveringTCPFabric's epoch/retransmit/replay semantics to N sessions
// sharing one link per peer pair.
//
// The division of labor differs from the single-session fabric in one
// structural way: there is no in-memory retransmit buffer or ack
// machinery. Each recovering session's journal IS its retransmit buffer
// — every send is journaled (write-ahead) before its first wire write,
// so any suffix of a session's traffic can be re-served at any time.
// After an outage the side that is missing frames asks for them with a
// resume frame ("I hold Seq frames of yours for SID"), and the owner
// replays its journal from that cursor. Resume requests fire on every
// link re-attach and when a restarted daemon re-adopts a session, so
// both directions of every interrupted conversation self-heal without
// per-frame acknowledgements.
//
// Because retransmitted frames interleave with live sends on the shared
// link, recovering receivers order frames by per-(session,peer)
// sequence number: duplicates are dropped, gaps are stashed in a
// bounded reorder buffer until the missing frame arrives. A link that
// stays down past the recovery grace blames the peer and fails every
// open session's receives from it with the same typed ErrPeerDown a
// single-session fabric would surface.

// defaultMuxGrace bounds a recovering link outage when the caller does
// not choose one.
const defaultMuxGrace = 30 * time.Second

// muxRecovery is the recovering-mode state hanging off a SessionMux.
// Mutable fields are guarded by the mux's own mu.
type muxRecovery struct {
	epoch int
	grace time.Duration

	ln net.Listener

	// peerEpoch is the highest boot epoch seen from each accepted peer;
	// a hello announcing an older epoch is a stale connection and is
	// rejected. (Dialed links carry our epoch outward instead.)
	peerEpoch []int
	// graceTimers holds the per-link blame timer armed while that link
	// is down; re-attaching stops it.
	graceTimers []*time.Timer
	// blamed marks links whose grace expired (health reports them dead,
	// not reconnecting).
	blamed []bool
	// upOnce closes firstUp exactly once per peer for formation.
	firstUp []chan struct{}
	upDone  []bool

	// resumable maps session ids to their journals for serving resume
	// requests after the session's goroutine is gone: a terminal
	// session still owes peers retransmissions until the service layer
	// purges it with DropResumable.
	resumable map[string]Journaler
	// serving dedupes concurrent registry-served retransmit runs, keyed
	// "sid|peer".
	serving map[string]bool
	// handshakes tracks accepted connections still inside the hello
	// read, so Close can cut them loose without waiting the deadline.
	handshakes map[net.Conn]bool
}

func (r *muxRecovery) closeLocked() {
	if r.ln != nil {
		r.ln.Close()
	}
	for _, t := range r.graceTimers {
		if t != nil {
			t.Stop()
		}
	}
	for c := range r.handshakes {
		c.Close()
	}
}

// formRecovering builds the recovering mesh: a lifetime accept loop for
// higher-indexed peers, a redial maintainer per lower-indexed peer, and
// an initial formation wait so callers still get the all-links-up
// guarantee NewSessionMux promises.
func (m *SessionMux) formRecovering(addrs []string, opts MuxRecovery) error {
	r := &muxRecovery{
		epoch:       opts.Epoch,
		grace:       opts.Grace,
		peerEpoch:   make([]int, m.n),
		graceTimers: make([]*time.Timer, m.n),
		blamed:      make([]bool, m.n),
		firstUp:     make([]chan struct{}, m.n),
		upDone:      make([]bool, m.n),
		resumable:   make(map[string]Journaler),
		serving:     make(map[string]bool),
		handshakes:  make(map[net.Conn]bool),
	}
	if r.epoch <= 0 {
		r.epoch = 1
	}
	if r.grace <= 0 {
		r.grace = defaultMuxGrace
	}
	for i := range r.firstUp {
		r.firstUp[i] = make(chan struct{})
	}
	m.rec = r

	ln, err := net.Listen("tcp", addrs[m.me])
	if err != nil {
		return fmt.Errorf("transport: listening on %s: %w", addrs[m.me], err)
	}
	r.ln = ln
	m.pumps.Add(1)
	go m.acceptLoop(ln)
	for peer := 0; peer < m.me; peer++ {
		m.pumps.Add(1)
		go m.maintainLink(peer, addrs[peer])
	}

	deadline := time.NewTimer(dialDeadline)
	defer deadline.Stop()
	for peer := 0; peer < m.n; peer++ {
		if peer == m.me {
			continue
		}
		select {
		case <-r.firstUp[peer]:
		case <-deadline.C:
			return fmt.Errorf("transport: mux link to party %d did not form within %v", peer, dialDeadline)
		case <-m.closeCh:
			return fmt.Errorf("transport: mux closed during formation")
		}
	}
	return nil
}

// acceptLoop accepts mux links for the mux's whole lifetime — the
// structural difference from the one-shot formation: a restarted or
// reconnecting peer can always re-join the mesh.
func (m *SessionMux) acceptLoop(ln net.Listener) {
	defer m.pumps.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (mux shutdown) or broken beyond use
		}
		m.pumps.Add(1)
		go func() {
			defer m.pumps.Done()
			m.handleAccept(conn)
		}()
	}
}

// handleAccept runs one inbound handshake. A malformed or stale hello
// just drops the connection — the mesh's health is the dialer's problem
// to fix by redialing.
func (m *SessionMux) handleAccept(conn net.Conn) {
	m.mu.Lock()
	m.rec.handshakes[conn] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.rec.handshakes, conn)
		m.mu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(handshakeDeadline))
	rd := bufio.NewReader(conn)
	v, err := wirecodec.ReadValue(rd)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	hello, ok := v.(muxHello)
	if !ok || hello.Party <= m.me || hello.Party >= m.n {
		conn.Close()
		return
	}
	m.attachRecovering(hello.Party, hello.Epoch, conn, rd)
}

// maintainLink keeps the dialed link to one lower-indexed peer alive:
// dial, handshake, pump until the connection dies, redial with backoff.
// The first dial is deadline-bounded so initial formation can fail the
// constructor; after that the maintainer retries until the mux closes.
func (m *SessionMux) maintainLink(peer int, addr string) {
	defer m.pumps.Done()
	jitter := rand.New(rand.NewSource(int64(m.me)<<16 | int64(peer)))
	first := true
	firstDeadline := time.Now().Add(dialDeadline)
	for {
		select {
		case <-m.closeCh:
			return
		default:
		}
		backoff := dialBackoffBase
		var conn net.Conn
		for conn == nil {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				conn = c
				break
			}
			if first && time.Now().After(firstDeadline) {
				return // formation fails via the firstUp wait
			}
			d := backoff/2 + time.Duration(jitter.Int63n(int64(backoff)))
			select {
			case <-time.After(d):
			case <-m.closeCh:
				return
			}
			if backoff *= 2; backoff > dialBackoffMax {
				backoff = dialBackoffMax
			}
		}
		conn.SetWriteDeadline(time.Now().Add(handshakeDeadline))
		err := wirecodec.WriteValue(conn, muxHello{Party: m.me, Epoch: m.rec.epoch})
		conn.SetWriteDeadline(time.Time{})
		if err != nil {
			conn.Close()
			continue
		}
		first = false
		done := m.attachRecovering(peer, -1, conn, bufio.NewReader(conn))
		if done == nil {
			return // mux closed during attach
		}
		select {
		case <-done:
		case <-m.closeCh:
			return
		}
	}
}

// attachRecovering wires one handshaken link, replacing any previous
// connection to that peer, and starts its pump. epoch is the peer's
// announced boot epoch (-1 on dialed links, where only we announce).
// Returns a channel closed when the pump exits, or nil if the
// connection was rejected.
func (m *SessionMux) attachRecovering(peer, epoch int, conn net.Conn, rd *bufio.Reader) chan struct{} {
	m.mu.Lock()
	select {
	case <-m.closeCh:
		m.mu.Unlock()
		conn.Close()
		return nil
	default:
	}
	r := m.rec
	if epoch >= 0 {
		if epoch < r.peerEpoch[peer] {
			m.mu.Unlock()
			conn.Close()
			return nil // stale connection from before the peer's restart
		}
		r.peerEpoch[peer] = epoch
	}
	if old := m.conns[peer]; old != nil {
		old.Close() // its pump sees the conn mismatch and exits quietly
	}
	m.conns[peer] = conn
	if t := r.graceTimers[peer]; t != nil {
		t.Stop()
		r.graceTimers[peer] = nil
	}
	r.blamed[peer] = false
	if !r.upDone[peer] {
		r.upDone[peer] = true
		close(r.firstUp[peer])
	}
	// Every open journal-backed session asks the re-attached peer for
	// the frames it missed during the outage.
	var resumes []*MuxSession
	for _, s := range m.sessions {
		if s.j != nil {
			resumes = append(resumes, s)
		}
	}
	m.mu.Unlock()
	lm := m.mm.link(peer)
	lm.connects.inc()
	lm.linkUp.Set(1)
	done := make(chan struct{})
	m.pumps.Add(1)
	go m.recPump(peer, conn, rd, done)
	for _, s := range resumes {
		go s.sendResume(peer)
	}
	return done
}

// recPump reads one recovering link until it dies. Unlike the one-shot
// pump, any failure — connection loss, malformed frame — marks the link
// down and arms the blame grace instead of permanently failing every
// session: the maintainer (or the peer's redial) gets a chance to bring
// the link back first.
func (m *SessionMux) recPump(peer int, conn net.Conn, rd *bufio.Reader, done chan struct{}) {
	defer m.pumps.Done()
	defer close(done)
	for {
		v, err := wirecodec.ReadValue(rd)
		if err != nil {
			m.markLinkDown(peer, conn, err)
			return
		}
		env, ok := v.(muxEnv)
		if !ok {
			m.markLinkDown(peer, conn, fmt.Errorf("transport: party %d sent a %T frame, want mux envelope", peer, v))
			return
		}
		atomicStoreLastSeen(m, peer)
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
		case muxKindResume:
			m.mm.resumeFrames.inc()
			m.routeResume(peer, env)
		default:
			m.markLinkDown(peer, conn, fmt.Errorf("transport: party %d sent mux frame kind %d", peer, env.Kind))
			return
		}
	}
}

// markLinkDown clears a dead connection and arms the blame grace. The
// conn parameter fences stale pumps: a pump whose connection was
// already replaced must not tear down its successor.
func (m *SessionMux) markLinkDown(peer int, conn net.Conn, cause error) {
	m.mu.Lock()
	if m.conns[peer] != conn {
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.conns[peer] = nil
	conn.Close()
	r := m.rec
	closed := false
	select {
	case <-m.closeCh:
		closed = true
	default:
	}
	if !closed {
		if t := r.graceTimers[peer]; t != nil {
			t.Stop()
		}
		grace := r.grace
		r.graceTimers[peer] = time.AfterFunc(grace, func() {
			m.blamePeer(peer, grace, cause)
		})
	}
	m.mu.Unlock()
	m.mm.link(peer).linkUp.Set(0)
}

// blamePeer fires when a link outage outlives the grace: every open
// session's receives from that peer fail with the typed ErrPeerDown a
// non-recovering mux would have surfaced immediately.
func (m *SessionMux) blamePeer(peer int, grace time.Duration, cause error) {
	m.mu.Lock()
	if m.conns[peer] != nil {
		m.mu.Unlock()
		return // the link came back while the timer was firing
	}
	select {
	case <-m.closeCh:
		m.mu.Unlock()
		return
	default:
	}
	m.rec.blamed[peer] = true
	open := make([]*MuxSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	err := fmt.Errorf("%w: party %d did not reconnect within the %v grace: %w", ErrPeerDown, peer, grace, cause)
	for _, s := range open {
		s.failPeer(peer, err)
	}
}

// routeResume routes one resume frame: to its open session, to the
// resumable registry when the session is already terminal here, or into
// the pending buffer so a not-yet-re-adopted session serves it at open.
func (m *SessionMux) routeResume(from int, env muxEnv) {
	m.mu.Lock()
	_, open := m.sessions[env.SID]
	var j Journaler
	var key string
	if !open {
		if j = m.rec.resumable[env.SID]; j != nil {
			key = env.SID + "|" + strconv.Itoa(from)
			if m.rec.serving[key] {
				m.mu.Unlock()
				return
			}
			m.rec.serving[key] = true
		}
	}
	m.mu.Unlock()
	if open || j == nil {
		// routeData's open path hands the frame to deliver, which
		// recognizes the resume kind; otherwise it pends or tombstones.
		m.routeData(from, env)
		return
	}
	go func() {
		m.retransmitFromJournal(env.SID, from, env.Seq, j)
		m.mu.Lock()
		delete(m.rec.serving, key)
		m.mu.Unlock()
	}()
}

// retransmitFromJournal re-serves a session's journaled sends to one
// peer starting after the peer's cursor. A write failure just stops the
// run — the peer re-requests on the next attach.
func (m *SessionMux) retransmitFromJournal(sid string, to int, have uint64, j Journaler) {
	msgs, err := j.SentTo(to)
	if err != nil || uint64(len(msgs)) <= have {
		return
	}
	for _, msg := range msgs[have:] {
		env := muxEnv{SID: sid, Kind: muxKindData, Round: msg.Round, Bytes: msg.Bytes, Seq: msg.Seq, Payload: msg.Payload}
		if m.writeFrame(to, m.timeout, env) != nil {
			return
		}
		m.mm.retransmits.inc()
	}
}

// ServeResumable registers a journal to answer resume requests for a
// session that will not be re-opened here (it already reached its
// terminal state in a previous life): a restarted daemon still owes its
// peers the retransmissions that finish their halves.
func (m *SessionMux) ServeResumable(sid string, j Journaler) {
	m.mu.Lock()
	if m.rec != nil && m.sessions[sid] == nil {
		m.rec.resumable[sid] = j
	}
	m.mu.Unlock()
}

// DropResumable forgets a terminal session's resume registration. The
// service layer calls it when it purges the session (its peers are
// terminal too by then, so nobody will ask again).
func (m *SessionMux) DropResumable(sid string) {
	m.mu.Lock()
	if m.rec != nil {
		delete(m.rec.resumable, sid)
	}
	m.mu.Unlock()
}

// OpenRecovering registers a journal-backed session on a recovering
// mux. The journal must hold this session's records (freshly created on
// a first run, reopened on a restart); its contents seed the replay
// queues exactly like a RecoveringTCPFabric restart: journaled receives
// are re-served to the protocol before any live traffic, journaled
// sends suppress the recomputation's first len(sent) writes, and peers
// are asked to retransmit anything past our receive cursors.
func (m *SessionMux) OpenRecovering(sid string, timeout time.Duration, j Journaler) (*MuxSession, error) {
	if m.rec == nil {
		return nil, fmt.Errorf("transport: OpenRecovering needs a mux built with MuxOptions.Recovery")
	}
	if j == nil {
		return nil, fmt.Errorf("transport: OpenRecovering needs a journal")
	}
	return m.open(sid, timeout, j)
}

// loadJournal seeds a session's recovery state from its journal.
func (s *MuxSession) loadJournal(j Journaler) error {
	n := s.m.n
	s.j = j
	s.sendSeq = make([]uint64, n)
	s.replaySends = make([][]JournalMsg, n)
	s.resuming = make([]bool, n)
	s.recvNext = make([]uint64, n)
	s.replayRecvs = make([][]JournalMsg, n)
	s.stash = make([]map[uint64]muxEnv, n)
	for p := 0; p < n; p++ {
		if p == s.m.me {
			continue
		}
		sent, err := j.SentTo(p)
		if err != nil {
			return fmt.Errorf("transport: mux session %s: reading journaled sends: %w", s.sid, err)
		}
		recv, err := j.RecvFrom(p)
		if err != nil {
			return fmt.Errorf("transport: mux session %s: reading journaled receives: %w", s.sid, err)
		}
		s.replaySends[p] = sent
		s.sendSeq[p] = uint64(len(sent))
		s.replayRecvs[p] = recv
		s.recvNext[p] = uint64(len(recv))
		s.stash[p] = make(map[uint64]muxEnv)
	}
	return nil
}

// announceResume asks every currently-connected peer to retransmit this
// session's missing frames; peers attaching later are asked on attach.
func (s *MuxSession) announceResume() {
	m := s.m
	m.mu.Lock()
	var up []int
	for p := 0; p < m.n; p++ {
		if p != m.me && m.conns[p] != nil {
			up = append(up, p)
		}
	}
	m.mu.Unlock()
	for _, p := range up {
		go s.sendResume(p)
	}
}

// sendResume tells one peer how much of its traffic we hold. Errors are
// ignored: a failed resume is retried on the next link attach.
func (s *MuxSession) sendResume(to int) {
	s.recvMu.Lock()
	have := s.recvNext[to]
	s.recvMu.Unlock()
	s.m.writeFrame(to, s.m.timeout, muxEnv{SID: s.sid, Kind: muxKindResume, Seq: have})
}

// serveResume starts (at most one per peer) a retransmit run for this
// open session.
func (s *MuxSession) serveResume(from int, have uint64) {
	if s.j == nil {
		return // we are not journal-backed; nothing to serve
	}
	s.sendMu.Lock()
	if s.resuming[from] {
		s.sendMu.Unlock()
		return
	}
	s.resuming[from] = true
	s.sendMu.Unlock()
	go func() {
		s.m.retransmitFromJournal(s.sid, from, have, s.j)
		s.sendMu.Lock()
		s.resuming[from] = false
		s.sendMu.Unlock()
	}()
}

// sendRecovering is Send's tail for journal-backed sessions: replay
// suppression, write-ahead journaling, then a best-effort wire write.
func (s *MuxSession) sendRecovering(round, to, bytes int, payload any) error {
	s.sendMu.Lock()
	if q := s.replaySends[to]; len(q) > 0 {
		msg := q[0]
		s.replaySends[to] = q[1:]
		s.sendMu.Unlock()
		if msg.Round != round {
			return Abort(to, round, "", fmt.Errorf("%w: recomputed send to party %d is for round %d, journal holds round %d",
				ErrReplayDiverged, to, round, msg.Round))
		}
		// The peer already holds (or can resume-request) this frame;
		// re-sending it would only create wire noise.
		return nil
	}
	seq := s.sendSeq[to] + 1
	if err := s.j.LogSend(to, round, bytes, seq, payload); err != nil {
		s.sendMu.Unlock()
		if lerr := encodeFault(to, round, err); lerr != nil {
			return lerr
		}
		return Abort(to, round, "", fmt.Errorf("journaling send to party %d: %w", to, err))
	}
	s.sendSeq[to] = seq
	s.sendMu.Unlock()
	// The journal is the retransmit buffer: a write onto a down or
	// dying link is not an error — the peer recovers the frame with a
	// resume request once the link is back. A frame that cannot be
	// encoded is: no resume will ever deliver it.
	err := s.m.writeFrame(to, s.timeout, muxEnv{SID: s.sid, Kind: muxKindData, Round: round, Bytes: bytes, Seq: seq, Payload: payload})
	if isEncodeError(err) {
		return err
	}
	return nil
}

// recvRecovering is RecvCtx's body for journal-backed sessions:
// journaled receives replay first, then live frames are accepted in
// per-peer sequence order through the reorder stash.
func (s *MuxSession) recvRecovering(ctx context.Context, from, round int) (any, error) {
	s.recvMu.Lock()
	if q := s.replayRecvs[from]; len(q) > 0 {
		msg := q[0]
		s.replayRecvs[from] = q[1:]
		s.recvMu.Unlock()
		if round >= 0 && msg.Round != round {
			return nil, Abort(from, round, "", fmt.Errorf("%w: journaled receive from party %d is for round %d, recomputation wants round %d",
				ErrReplayDiverged, from, msg.Round, round))
		}
		return msg.Payload, nil
	}
	if env, ok := s.stash[from][s.recvNext[from]+1]; ok {
		delete(s.stash[from], env.Seq)
		payload, accepted, err := s.acceptLocked(from, round, env)
		s.recvMu.Unlock()
		if err != nil || accepted {
			return payload, err
		}
	} else {
		s.recvMu.Unlock()
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
			payload, accepted, err := s.filterFrame(from, round, env)
			if err != nil {
				return nil, err
			}
			if accepted {
				return payload, nil
			}
		case <-s.peerDown[from]:
			// Drain frames that raced the failure into the queue.
			for {
				select {
				case env := <-s.inbox[from]:
					payload, accepted, err := s.filterFrame(from, round, env)
					if err != nil {
						return nil, err
					}
					if accepted {
						return payload, nil
					}
					continue
				default:
				}
				break
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

// filterFrame classifies one dequeued frame against the sequence
// cursor: duplicate (dropped), out-of-order (stashed), or next-expected
// (journaled and accepted). Returns accepted=false for frames that were
// absorbed without satisfying the receive.
func (s *MuxSession) filterFrame(from, round int, env muxEnv) (payload any, accepted bool, err error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	return s.acceptLocked(from, round, env)
}

func (s *MuxSession) acceptLocked(from, round int, env muxEnv) (payload any, accepted bool, err error) {
	if env.Seq == 0 {
		err = Abort(from, round, "", fmt.Errorf("%w: party %d sent an unsequenced frame into recovering session %s",
			ErrDesync, from, s.sid))
		s.failPeer(from, err)
		return nil, false, err
	}
	next := s.recvNext[from] + 1
	switch {
	case env.Seq < next:
		return nil, false, nil // duplicate of an already-journaled frame
	case env.Seq > next:
		if len(s.stash[from]) >= cap(s.inbox[from]) {
			err = Abort(from, round, "", fmt.Errorf("mux session %s: reorder stash for party %d overflowed its %d-frame budget",
				s.sid, from, cap(s.inbox[from])))
			s.failPeer(from, err)
			return nil, false, err
		}
		s.stash[from][env.Seq] = env
		return nil, false, nil
	}
	if lerr := s.j.LogRecv(from, env.Round, env.Bytes, env.Seq, env.Payload); lerr != nil {
		err = Abort(from, round, "", fmt.Errorf("journaling receive from party %d: %w", from, lerr))
		s.failPeer(from, err)
		return nil, false, err
	}
	s.recvNext[from] = env.Seq
	if round >= 0 && env.Round != round {
		return nil, false, roundMismatchAbort(from, round, env.Round)
	}
	return env.Payload, true, nil
}

// atomicStoreLastSeen mirrors the one-shot pump's last-contact stamp.
func atomicStoreLastSeen(m *SessionMux, peer int) {
	atomic.StoreInt64(&m.lastSeen[peer], time.Now().UnixNano())
}
