package transport

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// What every Net shares — the in-memory Fabric and every MuxSession,
// and through the latter both TCP fabrics: the send ledger behind Stats
// and the live send counters, the per-peer failure signal, and the one
// blocking receive wait.

// sendStats is the send ledger: one slot per sender. The in-memory
// Fabric observes every party and charges each sender's slot; a TCP
// endpoint observes only its own sends, so only its own slot fills.
// Echo sub-round traffic is consistency-layer overhead, tallied apart
// from the protocol counters.
type sendStats struct {
	mu        sync.Mutex
	msgs      []int64
	bytes     []int64
	maxRound  int
	rounds    map[int]RoundStats
	echoMsgs  int64
	echoBytes int64

	// tm is the live view the ledger feeds (nil: telemetry off). Every
	// session of one mux shares it; lastRound, the first send of this
	// ledger's latest round, stays per ledger so the round cadence is a
	// session's own.
	tm        *netMetrics
	lastRound time.Time
}

func (s *sendStats) init(n int, tm *netMetrics) {
	s.msgs, s.bytes = make([]int64, n), make([]int64, n)
	s.rounds, s.tm = make(map[int]RoundStats), tm
}

// count charges one logical send to from's slot. The live counters are
// fed inside the same critical section, so the exported metrics and
// Stats can never disagree about whether a round has started.
func (s *sendStats) count(from, round, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	newRound := false
	if IsEchoRound(round) {
		s.echoMsgs++
		s.echoBytes += int64(bytes)
	} else {
		s.msgs[from]++
		s.bytes[from] += int64(bytes)
		if round > s.maxRound {
			s.maxRound = round
		}
		rs, seen := s.rounds[round]
		newRound = !seen
		rs.Messages++
		rs.Bytes += int64(bytes)
		s.rounds[round] = rs
	}
	s.tm.onSendLocked(round, bytes, newRound, &s.lastRound)
}

// Stats reports the ledger's logical protocol traffic, per sender.
// Link-level frames (hellos, acks, heartbeats, resume requests,
// retransmissions) are transport overhead and never counted.
func (s *sendStats) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		MessagesSent:   append([]int64(nil), s.msgs...),
		BytesSent:      append([]int64(nil), s.bytes...),
		MaxRound:       s.maxRound,
		DistinctRounds: len(s.rounds),
		PerRound:       make(map[int]RoundStats, len(s.rounds)),
		EchoMessages:   s.echoMsgs,
		EchoBytes:      s.echoBytes,
	}
	for r, rs := range s.rounds {
		out.PerRound[r] = rs
	}
	return out
}

// checkEndpoints validates the (from, to) pair of a send or the
// (to, from) pair of a receive on party me's endpoint: only its own
// index is a valid local end, and only another party a valid peer.
func checkEndpoints(n, me, local, peer int, verb string) error {
	if local != me {
		return fmt.Errorf("transport: tcp party %d cannot %s as %d", me, verb, local)
	}
	if peer < 0 || peer >= n || peer == me {
		return fmt.Errorf("transport: invalid peer %d", peer)
	}
	return nil
}

// takeRound is the tail of every receive: if want is non-negative the
// frame's round tag must match it (protocols have static round
// structure, so a mismatch proves the stream was shifted), else the
// payload satisfies the receive. Its results are recvWait's take
// results.
func takeRound(from, want, got int, payload any) (any, bool, error) {
	if want >= 0 && got != want {
		return nil, false, roundMismatchAbort(from, want, got)
	}
	return payload, true, nil
}

// downSignal is the failure state of receives from one peer: a channel
// that is closed while the peer is failed, and the cause. A recoverable
// failure (a blame the peer outlived by reconnecting) is cleared by
// installing a fresh channel.
type downSignal struct {
	mu  sync.Mutex
	ch  chan struct{}
	err error
}

// fail marks the peer failed with cause; the first cause wins.
func (d *downSignal) fail(cause error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return
	}
	d.err = cause
	if d.ch == nil {
		d.ch = make(chan struct{})
	}
	close(d.ch)
}

// clear withdraws a failure.
func (d *downSignal) clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		d.err, d.ch = nil, nil
	}
}

// state returns the channel to wait on and, once it is closed, the
// cause.
func (d *downSignal) state() (<-chan struct{}, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ch == nil {
		d.ch = make(chan struct{})
	}
	return d.ch, d.err
}

// recvWait is the one blocking receive under every Net. It
// waits for a frame on q and hands it to take, which either satisfies
// the receive (done), absorbs the frame (a duplicate, an out-of-order
// frame stashed for later) or fails it. The wait ends early when the
// peer is failed, ctx is cancelled, timeout expires (<= 0: no bound) or
// the endpoint is closed.
//
// Ordering contract: an endpoint closed locally (closedA or closedB; a
// nil channel never fires, so the in-memory Fabric, which never closes,
// passes nil) answers ErrClosed before it looks at q — its
// queue is discarded. A peer or link failure drains q first, like
// buffered TCP data before EOF, so a failure never eats data that
// arrived before it.
func recvWait[F any](ctx context.Context, from, round int, timeout time.Duration,
	closedA, closedB <-chan struct{}, q <-chan F, down *downSignal,
	take func(F) (payload any, done bool, err error)) (any, error) {
	select {
	case <-closedA:
		return nil, Abort(from, round, "", ErrClosed)
	case <-closedB:
		return nil, Abort(from, round, "", ErrClosed)
	default:
	}
	var timerC <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		timerC = tm.C
	}
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	// drain takes queued frames without blocking until one satisfies the
	// receive or the queue is empty.
	drain := func() (any, bool, error) {
		for {
			select {
			case f := <-q:
				if payload, done, err := take(f); done || err != nil {
					return payload, true, err
				}
			default:
				return nil, false, nil
			}
		}
	}
	for {
		if payload, done, err := drain(); done {
			return payload, err
		}
		failed, _ := down.state()
		select {
		case f := <-q:
			if payload, done, err := take(f); done || err != nil {
				return payload, err
			}
		case <-failed:
			// Once more: a frame may have raced the failure into the queue.
			if payload, done, err := drain(); done {
				return payload, err
			}
			if now, cause := down.state(); now == failed {
				return nil, Abort(from, round, "", cause)
			}
			// The peer reconnected while we waited: keep waiting.
		case <-cancelled:
			return nil, Abort(from, round, "", ctx.Err())
		case <-timerC:
			return nil, Abort(from, round, "", ErrTimeout)
		case <-closedA:
			return nil, Abort(from, round, "", ErrClosed)
		case <-closedB:
			return nil, Abort(from, round, "", ErrClosed)
		}
	}
}
