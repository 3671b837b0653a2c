// Package transport provides the in-memory secure-channel fabric the
// protocol stack runs over. The paper assumes a secure pairwise channel
// between every pair of parties (Section III-A); this package supplies
// that abstraction for in-process simulation, instruments every message
// with its logical round and byte size, and captures a trace that the
// netsim package can replay over a simulated network to reproduce
// Fig. 3(b).
//
// Parties are identified by dense indices 0..n-1. Per-pair channels are
// FIFO and buffered, mimicking an asynchronous reliable network. Round
// numbers are assigned explicitly by protocol code at Send call sites:
// the protocols in this repository have static round structure, and an
// explicit tag is both simpler and more faithful than inferring rounds
// from runtime interleavings.
package transport

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Event records one message for tracing and replay.
type Event struct {
	Round int
	From  int
	To    int
	Bytes int
}

// RoundStats aggregates the traffic of one logical round across all
// senders.
type RoundStats struct {
	Messages int64
	Bytes    int64
}

// Stats summarises per-party traffic. Both fabric implementations
// return the same shape: the in-memory Fabric observes every party,
// a TCP endpoint fills only its own slot (a real endpoint cannot see
// its peers' counters).
type Stats struct {
	MessagesSent []int64
	BytesSent    []int64
	// MaxRound is the highest round tag seen (tags may be sparse).
	MaxRound int
	// DistinctRounds is the number of distinct round tags used — the
	// framework's actual communication-round count.
	DistinctRounds int
	// PerRound breaks traffic down by round tag, summed over the
	// observed senders.
	PerRound map[int]RoundStats
	// EchoMessages/EchoBytes tally the consistency layer's echo
	// sub-round traffic (round tags in the reserved echo band). Echo
	// digests are transport overhead of the active-adversary hardening,
	// not protocol traffic, so they are counted here and excluded from
	// MessagesSent/BytesSent/PerRound — the protocol cost model and the
	// bench snapshot stay comparable whether echoes run or not.
	EchoMessages int64
	EchoBytes    int64
}

// Option configures a Fabric.
type Option func(*Fabric)

// WithQueueCapacity sets the per-pair channel buffer (default 4096).
func WithQueueCapacity(c int) Option {
	return func(f *Fabric) { f.capacity = c }
}

// WithRecvTimeout makes RecvCtx fail after d instead of blocking forever.
// Failure-injection tests use it to turn dropped messages into clean
// errors.
func WithRecvTimeout(d time.Duration) Option {
	return func(f *Fabric) { f.timeout = d }
}

// WithDropFilter installs a predicate that silently drops matching
// messages, for failure-injection tests.
func WithDropFilter(drop func(Event) bool) Option {
	return func(f *Fabric) { f.drop = drop }
}

// WithoutTrace disables trace capture (benchmarks at large n avoid the
// allocation).
func WithoutTrace() Option {
	return func(f *Fabric) { f.traceOff = true }
}

// Fabric is a complete graph of instrumented FIFO channels among n
// parties. All methods are safe for concurrent use by the party
// goroutines.
type Fabric struct {
	n        int
	capacity int
	timeout  time.Duration
	drop     func(Event) bool
	traceOff bool

	queues [][]chan message // queues[from][to]
	// down[p] is closed when party p is known to have crashed
	// (MarkDown); receives from p then fail immediately with
	// ErrPeerDown instead of waiting out a timeout, mirroring the
	// connection-loss detection a real TCP mesh provides.
	down     []chan struct{}
	downOnce []sync.Once

	mu        sync.Mutex
	trace     []Event
	msgs      []int64
	bytes     []int64
	maxRound  int
	rounds    map[int]RoundStats
	echoMsgs  int64
	echoBytes int64
}

type message struct {
	payload any
	bytes   int
	round   int
}

// New creates a fabric for n parties.
func New(n int, opts ...Option) (*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least one party, got %d", n)
	}
	f := &Fabric{n: n, capacity: 4096, msgs: make([]int64, n), bytes: make([]int64, n), rounds: make(map[int]RoundStats)}
	for _, opt := range opts {
		opt(f)
	}
	if f.capacity < 1 {
		return nil, fmt.Errorf("transport: queue capacity must be at least 1, got %d", f.capacity)
	}
	f.queues = make([][]chan message, n)
	for i := range f.queues {
		f.queues[i] = make([]chan message, n)
		for j := range f.queues[i] {
			f.queues[i][j] = make(chan message, f.capacity)
		}
	}
	f.down = make([]chan struct{}, n)
	f.downOnce = make([]sync.Once, n)
	for i := range f.down {
		f.down[i] = make(chan struct{})
	}
	return f, nil
}

// MarkDown declares party p crashed: every pending and future receive
// from p fails immediately with an AbortError carrying ErrPeerDown
// (after draining messages p sent before crashing). The fault-injection
// harness calls it when a crash schedule fires; it is idempotent.
func (f *Fabric) MarkDown(p int) {
	if p < 0 || p >= f.n {
		return
	}
	f.downOnce[p].Do(func() { close(f.down[p]) })
}

// N returns the number of parties.
func (f *Fabric) N() int { return f.n }

// Send delivers payload from one party to another, charging the given
// byte size to the sender and tagging the message with the protocol
// round. It returns an error for invalid endpoints or a full queue.
func (f *Fabric) Send(round, from, to, bytes int, payload any) error {
	if err := f.check(from, to); err != nil {
		return err
	}
	ev := Event{Round: round, From: from, To: to, Bytes: bytes}
	f.mu.Lock()
	if IsEchoRound(round) {
		// Echo digests are consistency-layer overhead: tallied apart so
		// the protocol counters (and the trace netsim replays) match a
		// semi-honest run exactly.
		f.echoMsgs++
		f.echoBytes += int64(bytes)
	} else {
		f.msgs[from]++
		f.bytes[from] += int64(bytes)
		if round > f.maxRound {
			f.maxRound = round
		}
		rs := f.rounds[round]
		rs.Messages++
		rs.Bytes += int64(bytes)
		f.rounds[round] = rs
		if !f.traceOff {
			f.trace = append(f.trace, ev)
		}
	}
	dropped := f.drop != nil && f.drop(ev)
	f.mu.Unlock()
	if dropped {
		return nil
	}
	select {
	case f.queues[from][to] <- message{payload: payload, bytes: bytes, round: round}:
		return nil
	default:
		return fmt.Errorf("transport: queue %d→%d full (capacity %d)", from, to, f.capacity)
	}
}

// RecvCtx blocks until a message from the given peer arrives, the
// context is cancelled, the configured timeout expires, or the peer is
// marked down. If round is non-negative the received message's round
// tag must match it: protocols have static round structure, so a
// mismatch proves the stream was shifted by a dropped, duplicated or
// reordered message, and the receive fails with a typed AbortError
// instead of silently consuming a stale payload.
func (f *Fabric) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if err := f.check(from, to); err != nil {
		return nil, err
	}
	q := f.queues[from][to]
	// Fast path — and drain preference: messages the peer sent before
	// crashing are still delivered, like buffered TCP data before EOF.
	select {
	case m := <-q:
		return f.accept(m, from, round)
	default:
	}
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
	select {
	case m := <-q:
		return f.accept(m, from, round)
	case <-f.down[from]:
		// Drain once more: the crash may have raced a final send.
		select {
		case m := <-q:
			return f.accept(m, from, round)
		default:
		}
		return nil, Abort(from, round, "", ErrPeerDown)
	case <-done:
		return nil, Abort(from, round, "", ctx.Err())
	case <-timerC:
		return nil, Abort(from, round, "", ErrTimeout)
	}
}

func (f *Fabric) accept(m message, from, round int) (any, error) {
	if round >= 0 && m.round != round {
		return nil, roundMismatchAbort(from, round, m.round)
	}
	return m.payload, nil
}

// roundMismatchAbort is the shared typed abort for a message arriving
// with the wrong round tag. The stream was shifted — by a dropped,
// duplicated or reordered message, or by a sender replaying a stale
// round — so the abort names the sender and carries a CheckRoundReplay
// certificate recording the expected and observed tags.
func roundMismatchAbort(from, want, got int) error {
	return Abort(from, want, "",
		fmt.Errorf("%w: got %d from party %d, want %d", ErrRoundMismatch, got, from, want)).
		WithCert(&BlameCert{
			Version: BlameCertVersion, Accused: from, Reporter: -1,
			Round: want, Check: CheckRoundReplay,
			Detail: fmt.Sprintf("message from party %d carried round tag %d where %d was expected", from, got, want),
			Items: []BlameItem{
				{Name: "round-want", Data: []byte(fmt.Sprintf("%d", want))},
				{Name: "round-got", Data: []byte(fmt.Sprintf("%d", got))},
			},
		})
}

// Broadcast sends the same payload from one party to every other party,
// charging bytes once per recipient (the paper's model has no physical
// broadcast medium; a broadcast is n−1 unicasts). It is best-effort:
// every leg is attempted even when one fails, and the first error is
// returned after all legs, so one full queue or dead peer does not keep
// the message from the other parties.
func (f *Fabric) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(f.n, from, func(to int) error {
		return f.Send(round, from, to, bytes, payload)
	})
}

// GatherAllCtx receives one message from every other party, returned
// as a slice indexed by sender (the self slot is nil).
func (f *Fabric) GatherAllCtx(ctx context.Context, to, round int) ([]any, error) {
	return gatherAll(ctx, f, to, round)
}

// gatherAll implements GatherAllCtx over any Net's RecvCtx.
func gatherAll(ctx context.Context, net Net, to, round int) ([]any, error) {
	n := net.N()
	out := make([]any, n)
	for from := 0; from < n; from++ {
		if from == to {
			continue
		}
		p, err := net.RecvCtx(ctx, to, from, round)
		if err != nil {
			return nil, err
		}
		out[from] = p
	}
	return out, nil
}

// Stats returns a snapshot of the per-party counters.
func (f *Fabric) Stats() Stats {
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
	copy(s.MessagesSent, f.msgs)
	copy(s.BytesSent, f.bytes)
	for r, rs := range f.rounds {
		s.PerRound[r] = rs
	}
	return s
}

// Trace returns a copy of the recorded message trace, ordered by send
// time. Replay consumers group events by Round.
func (f *Fabric) Trace() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, len(f.trace))
	copy(out, f.trace)
	return out
}

// TotalBytes sums bytes sent by all parties.
func (s Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.BytesSent {
		t += b
	}
	return t
}

func (f *Fabric) check(a, b int) error {
	if a < 0 || a >= f.n || b < 0 || b >= f.n {
		return fmt.Errorf("transport: party index out of range (%d, %d) with n=%d", a, b, f.n)
	}
	if a == b {
		return fmt.Errorf("transport: party %d cannot message itself", a)
	}
	return nil
}
