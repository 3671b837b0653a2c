// Package transport provides the in-memory secure-channel fabric the
// protocol stack runs over. The paper assumes a secure pairwise channel
// between every pair of parties (Section III-A); this package supplies
// that abstraction for in-process simulation and instruments every
// message with its logical round and byte size.
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
	"errors"
	"fmt"
	"sync"
	"time"
)

// RoundStats aggregates the traffic of one logical round across all
// senders.
type RoundStats struct {
	Messages int64
	Bytes    int64
}

// Stats summarises per-party traffic. Every Net reports it from the one
// send ledger (endpoint.go), in the same shape: the in-memory Fabric
// observes every party, a TCP endpoint fills only its own slot (a real
// endpoint cannot see its peers' counters).
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

// WithRecvTimeout makes RecvCtx fail after d instead of blocking forever.
// The chaos and Byzantine suites need it: a receive bound turns a
// dropped or withheld message into a clean, attributable abort, which
// is their evidence that no fault hangs a party.
func WithRecvTimeout(d time.Duration) Option {
	return func(f *Fabric) { f.timeout = d }
}

// queueCap is the per-pair channel buffer. A send never blocks — a full
// queue fails it — so the buffer must hold a receiver's whole backlog:
// far more frames than any protocol here sends one peer ahead of it.
const queueCap = 4096

// Fabric is a complete graph of instrumented FIFO channels among n
// parties. All methods are safe for concurrent use by the party
// goroutines. Its send ledger and receive wait are the ones under every
// Net (endpoint.go); what is its own is the queues.
type Fabric struct {
	n       int
	timeout time.Duration

	sendStats

	queues [][]chan message // queues[from][to]
	// down[p] fails receives from p once p is known to have crashed
	// (MarkDown), mirroring the connection-loss detection a real TCP
	// mesh provides.
	down []downSignal
}

type message struct {
	payload any
	round   int
}

// New creates a fabric for n parties.
func New(n int, opts ...Option) (*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least one party, got %d", n)
	}
	f := &Fabric{n: n, down: make([]downSignal, n)}
	f.sendStats.init(n, nil)
	for _, opt := range opts {
		opt(f)
	}
	f.queues = make([][]chan message, n)
	for i := range f.queues {
		f.queues[i] = make([]chan message, n)
		for j := range f.queues[i] {
			f.queues[i][j] = make(chan message, queueCap)
		}
	}
	return f, nil
}

// MarkDown declares party p crashed: every pending and future receive
// from p fails with an AbortError carrying ErrPeerDown (after draining
// messages p sent before crashing). The fault-injection harness calls
// it when a crash schedule fires; it is idempotent.
func (f *Fabric) MarkDown(p int) {
	if p < 0 || p >= f.n {
		return
	}
	f.down[p].fail(ErrPeerDown)
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
	f.count(from, round, bytes)
	select {
	case f.queues[from][to] <- message{payload: payload, round: round}:
		return nil
	default:
		return fmt.Errorf("transport: queue %d→%d full (capacity %d)", from, to, queueCap)
	}
}

// RecvCtx blocks until a message from the given peer arrives, the
// context is cancelled, the configured timeout expires, or the peer is
// marked down; messages the peer sent before it went down are still
// delivered, like buffered TCP data before EOF. If round is
// non-negative the received message's round tag must match it: a
// mismatch proves the stream was shifted by a dropped, duplicated or
// reordered message, and the receive fails with a typed AbortError
// instead of silently consuming a stale payload.
func (f *Fabric) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if err := f.check(from, to); err != nil {
		return nil, err
	}
	return recvWait(ctx, from, round, f.timeout, nil, nil, f.queues[from][to], &f.down[from],
		func(m message) (any, bool, error) { return takeRound(from, round, m.round, m.payload) })
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

// GatherAll receives one message from party to's every peer through
// net's RecvCtx (so a wrapper's receive path sees each one), under
// RecvCtx's rules, and returns them indexed by sender with the self slot
// nil. It fails with the first receive's error.
func GatherAll(ctx context.Context, net Net, to, round int) ([]any, error) {
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

// RunMesh is the one in-process mesh runner: it builds an n-party
// Fabric from opts and runs body once per party, every party on its own
// goroutine at once (the parties block on each other, so a bounded pool
// would deadlock them). wrap, when non-nil, decorates the net every
// body talks through; the undecorated fabric is returned for its
// stats. The first body to fail cancels the context all the
// others run under, so none is left blocked on a message that will
// never arrive. RunMesh returns once every goroutine has exited, with
// each party's error and the root cause: the lowest-index error that is
// not a context cancellation (cancellations echo a real failure), else
// the lowest-index error.
func RunMesh(ctx context.Context, n int, wrap func(Net) Net, body func(ctx context.Context, me int, net Net) error, opts ...Option) (*Fabric, []error, error) {
	fab, err := New(n, opts...)
	if err != nil {
		return nil, nil, err
	}
	var net Net = fab
	if wrap != nil {
		net = wrap(fab)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[me] = body(ctx, me, net); errs[me] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	var root error
	for _, err := range errs {
		if err != nil && (root == nil || errors.Is(root, context.Canceled) && !errors.Is(err, context.Canceled)) {
			root = err
		}
	}
	return fab, errs, root
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
