package transport

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Recovering mode for the SessionMux: the one recovery discipline, under
// rankd's many sessions and under a recovering TCPFabric's one.
//
// There is no in-memory retransmit buffer and no acknowledgement
// machinery. Each recovering session's journal IS its retransmit buffer
// — every send is journaled (write-ahead) before its first wire write,
// so any suffix of a session's traffic can be re-served at any time.
// After an outage the side that is missing frames asks for them with a
// resume frame ("I hold Seq frames of yours for SID"), and the owner
// replays its journal from that cursor. Resume requests fire on every
// link re-attach and when a restarted endpoint re-adopts a session, so
// both directions of every interrupted conversation self-heal without
// per-frame acknowledgements.
//
// Because retransmitted frames interleave with live sends on the shared
// link, recovering receivers order frames by per-(session,peer)
// sequence number: duplicates are dropped, gaps are stashed in a
// bounded reorder buffer until the missing frame arrives. A link that
// stays down past the recovery grace blames the peer and fails every
// open session's receives from it with the same typed ErrPeerDown a
// fail-fast mux would surface.
//
// Every recovering link also carries heartbeats, which keep a
// connection's read deadline from firing while the peer is alive: a
// connection that delivers nothing for livenessWindow (a severed link, a
// frozen peer) fails its pump's read and enters the redial/grace path,
// so a slow peer stalls a session and only a dead one is blamed.

// Sentinel causes specific to recovering sessions.
var (
	// ErrReplayDiverged: a restarted party's recomputation produced a
	// different message sequence than its journal — the process was
	// restarted with a different seed, flags or binary.
	ErrReplayDiverged = errors.New("transport: journal replay diverged from recomputation")
	// ErrDesync: a peer sent an unsequenced frame into a recovering
	// session, which a correct recovering peer never does.
	ErrDesync = errors.New("transport: link sequence desynchronised")
)

const (
	// defaultGrace bounds a recovering link outage when the caller does
	// not choose one.
	defaultGrace = 15 * time.Second
	// heartbeatInterval paces the heartbeat on every recovering link.
	heartbeatInterval = 250 * time.Millisecond
	// livenessWindow is how long a recovering connection may deliver no
	// frame at all before its read deadline takes it down.
	livenessWindow = 4*heartbeatInterval + time.Second
)

// JournalMsg is one journaled protocol message, as recovering sessions
// exchange them with a Journaler.
type JournalMsg struct {
	Round   int
	Seq     uint64
	Bytes   int
	Payload any
}

// Journaler is the write-ahead log a recovering session records protocol
// messages into (implemented durably by internal/journal). LogSend is
// called before a message's first wire write; LogRecv before a received
// message is handed to the protocol, so a peer's cursor never counts a
// message the receiver could lose. SentTo/RecvFrom replay the records
// in order on restart, and SentTo serves retransmissions: a message's
// sequence number is its 1-based position in SentTo. Implementations
// must be safe for concurrent use.
type Journaler interface {
	LogSend(peer, round, bytes int, seq uint64, payload any) error
	LogRecv(peer, round, bytes int, seq uint64, payload any) error
	SentTo(peer int) ([]JournalMsg, error)
	RecvFrom(peer int) ([]JournalMsg, error)
}

// muxRecovery is the recovering-mode state hanging off a SessionMux;
// the maps are guarded by the mux's own mu. The links themselves —
// redial, stale-epoch fencing, the blame grace — are the link layer's
// (link.go); what is here is the per-session resume discipline it
// drives through onUp, and the heartbeats.
type muxRecovery struct {
	// resumable maps session ids to their journals for serving resume
	// requests after the session's goroutine is gone: a terminal
	// session still owes peers retransmissions until the service layer
	// purges it with DropResumable.
	resumable map[string]Journaler
	// serving dedupes concurrent registry-served retransmit runs, keyed
	// "sid|peer".
	serving map[string]bool
	// rtt is the latest heartbeat round trip per peer, in nanoseconds.
	rtt []atomic.Int64
	// wg waits for the heartbeat loop.
	wg sync.WaitGroup
}

// heartbeatLoop sends every connected peer a heartbeat each interval,
// stamped with this endpoint's clock, and re-arms each connection's read
// deadline at its last frame plus livenessWindow. A live peer's
// heartbeats keep moving the deadline; a silent connection's stays put
// and fails its pump's read.
func (m *SessionMux) heartbeatLoop() {
	defer m.rec.wg.Done()
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-m.Done():
			return
		case now := <-t.C:
			for peer := 0; peer < m.n; peer++ {
				if peer == m.me {
					continue
				}
				conn := m.link.conn(peer)
				if conn == nil {
					continue
				}
				conn.SetReadDeadline(time.Unix(0, m.link.lastSeen[peer].Load()).Add(livenessWindow))
				// Best effort: a failed write takes the link down into the
				// redial path like any other.
				_ = m.link.writeOn(conn, peer, 0, m.timeout, muxEnv{Kind: muxKindHeartbeat, Seq: uint64(now.UnixNano())})
			}
		}
	}
}

// onHeartbeat answers a peer's heartbeat with an echo of its stamp, or
// takes the round trip from an echo of our own: both clock reads are
// ours, and a wall clock stepping backwards between them is ignored.
func (m *SessionMux) onHeartbeat(peer int, env muxEnv) {
	if env.Round != muxNoReply {
		_ = m.writeFrame(peer, m.timeout, muxEnv{Kind: muxKindHeartbeat, Round: muxNoReply, Seq: env.Seq})
		return
	}
	if rtt := time.Since(time.Unix(0, int64(env.Seq))); rtt >= 0 {
		m.rec.rtt[peer].Store(int64(rtt))
		m.mm.hbRTT.Observe(rtt.Seconds())
	}
}

// routeResume routes one resume frame: to its open session, to the
// resumable registry when the session is already terminal here, or into
// the pending buffer so a not-yet-re-adopted session serves it at open.
// A cursor report asks for nothing, so the registry ignores it.
func (m *SessionMux) routeResume(from int, env muxEnv) {
	m.mu.Lock()
	_, open := m.sessions[env.SID]
	var j Journaler
	var key string
	if !open {
		if j = m.rec.resumable[env.SID]; j != nil {
			if env.Round == muxNoReply {
				m.mu.Unlock()
				return
			}
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
// peer starting after the peer's cursor. Sequence numbers are journal
// positions, whatever the records carry. A write failure just stops the
// run — the peer re-requests on the next attach.
func (m *SessionMux) retransmitFromJournal(sid string, to int, have uint64, j Journaler) {
	msgs, err := j.SentTo(to)
	if err != nil || uint64(len(msgs)) <= have {
		return
	}
	for i, msg := range msgs[have:] {
		env := muxEnv{SID: sid, Kind: muxKindData, Round: msg.Round, Bytes: msg.Bytes, Seq: have + uint64(i) + 1, Payload: msg.Payload}
		if m.writeFrame(to, m.timeout, env) != nil {
			return
		}
		m.mm.retransmits.Inc()
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
// queues: journaled receives are re-served to the protocol before any
// live traffic, journaled sends suppress the recomputation's first
// len(sent) writes, and peers are asked to retransmit anything past our
// receive cursors.
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
	s.peerHas = make([]uint64, n)
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

// sendCursor tells one peer how much of its traffic we hold: a resume
// request (round 0), or with round muxNoReply a bare report. Errors are
// ignored: a lost cursor is re-sent as a resume on the next link attach.
func (s *MuxSession) sendCursor(to, round int) {
	s.recvMu.Lock()
	have := s.recvNext[to]
	s.recvMu.Unlock()
	s.m.writeFrame(to, s.m.timeout, muxEnv{SID: s.sid, Kind: muxKindResume, Round: round, Seq: have})
}

// resumeFrom takes a peer's resume frame for this open session: it
// records the peer's cursor and, unless the frame is a bare report,
// starts (at most one per peer) a retransmit run past it, off the pump
// goroutine.
func (s *MuxSession) resumeFrom(from int, env muxEnv) {
	if s.j == nil {
		return // we are not journal-backed; nothing to serve
	}
	s.sendMu.Lock()
	s.peerHas[from] = max(s.peerHas[from], env.Seq)
	if env.Round == muxNoReply || s.resuming[from] {
		s.sendMu.Unlock()
		return
	}
	s.resuming[from] = true
	s.sendMu.Unlock()
	go func() {
		s.m.retransmitFromJournal(s.sid, from, env.Seq, s.j)
		s.sendMu.Lock()
		s.resuming[from] = false
		s.sendMu.Unlock()
	}()
}

// drainState reports whether every peer's cursor covers this session's
// sends to it and, if not, whether receives from an uncovered peer have
// failed (that peer was blamed, or its stream broke): the session has
// given up on it.
func (s *MuxSession) drainState() (covered, failed bool) {
	covered = true
	for p := range s.peerHas {
		if p == s.m.me {
			continue
		}
		s.sendMu.Lock()
		holds := s.peerHas[p] >= s.sendSeq[p]
		s.sendMu.Unlock()
		if holds {
			continue
		}
		covered = false
		if _, err := s.down[p].state(); err != nil {
			failed = true
		}
	}
	return covered, failed
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

// replayRecv is the head of RecvCtx for journal-backed sessions:
// journaled receives replay first, then a stashed frame that has become
// next-expected. done is false when the receive has to wait for live
// frames, which are then accepted in per-peer sequence order through
// filterFrame.
func (s *MuxSession) replayRecv(from, round int) (payload any, done bool, err error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	if q := s.replayRecvs[from]; len(q) > 0 {
		msg := q[0]
		s.replayRecvs[from] = q[1:]
		if round >= 0 && msg.Round != round {
			return nil, false, Abort(from, round, "", fmt.Errorf("%w: journaled receive from party %d is for round %d, recomputation wants round %d",
				ErrReplayDiverged, from, msg.Round, round))
		}
		return msg.Payload, true, nil
	}
	if env, ok := s.stash[from][s.recvNext[from]+1]; ok {
		delete(s.stash[from], env.Seq)
		return s.acceptLocked(from, round, env)
	}
	return nil, false, nil
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
		s.down[from].fail(err)
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
			s.down[from].fail(err)
			return nil, false, err
		}
		s.stash[from][env.Seq] = env
		return nil, false, nil
	}
	if lerr := s.j.LogRecv(from, env.Round, env.Bytes, env.Seq, env.Payload); lerr != nil {
		err = Abort(from, round, "", fmt.Errorf("journaling receive from party %d: %w", from, lerr))
		s.down[from].fail(err)
		return nil, false, err
	}
	s.recvNext[from] = env.Seq
	return takeRound(from, round, env.Round, env.Payload)
}
