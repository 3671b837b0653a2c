package transport

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"groupranking/internal/telemetry"
	"groupranking/internal/wirecodec"
)

// TCPFabric implements Net over real TCP connections, so the protocol
// stack runs unchanged across processes or machines — the deployment
// shape the paper's "fully distributed framework" implies. Each pair of
// parties shares one duplex TCP connection carrying wirecodec envelope
// frames (length-prefixed, versioned binary); per-sender FIFO ordering
// is TCP's ordering.
//
// Failure behaviour: a lost connection or a malformed frame is detected
// by the per-peer reader pump and surfaces on the next receive as a
// typed *AbortError naming the peer (ErrPeerDown), never as a hang or
// a decode panic. Writes carry a deadline so a stalled peer cannot
// block a sender forever. Close drains and tears down every connection
// gracefully.
//
// Payload types that cross a TCPFabric use the wirecodec codecs their
// packages register from init. A payload without one does not cross:
// Send returns the codec's encode error, blaming nobody.
type TCPFabric struct {
	n  int
	me int

	conns []net.Conn
	encMu []sync.Mutex
	inbox []chan envelope

	timeout time.Duration

	mu        sync.Mutex
	msgs      int64
	bytes     int64
	maxRound  int
	rounds    map[int]RoundStats
	echoMsgs  int64
	echoBytes int64
	recvErr   []error // first reader-pump error per peer
	tm        *netMetrics

	// lastSeen[peer] is the unix-nano time of the last frame the reader
	// pump decoded from that peer (atomic; 0 before first contact).
	lastSeen []int64

	closeOnce sync.Once
	closeCh   chan struct{}
	pumps     sync.WaitGroup
}

var _ Net = (*TCPFabric)(nil)

// envelope is the wire frame.
type envelope struct {
	Round   int
	Bytes   int
	Payload any
}

// Mesh-formation and handshake limits.
const (
	dialDeadline      = 10 * time.Second
	dialBackoffBase   = 5 * time.Millisecond
	dialBackoffMax    = 250 * time.Millisecond
	handshakeDeadline = 5 * time.Second
)

// NewTCPFabric builds party me's endpoint of an n-party mesh. addrs
// lists every party's listen address (host:port); the function listens
// on addrs[me], dials every lower-indexed party (with exponential
// backoff and jitter while they come up), accepts connections from
// every higher-indexed one, and returns when the mesh is complete.
// All parties must call it concurrently. timeout bounds each receive
// wait and each write; <= 0 means no bound.
func NewTCPFabric(addrs []string, me int, timeout time.Duration) (*TCPFabric, error) {
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
	f := &TCPFabric{
		n:        n,
		me:       me,
		conns:    make([]net.Conn, n),
		encMu:    make([]sync.Mutex, n),
		inbox:    make([]chan envelope, n),
		timeout:  timeout,
		rounds:   make(map[int]RoundStats),
		recvErr:  make([]error, n),
		lastSeen: make([]int64, n),
		closeCh:  make(chan struct{}),
	}
	for i := range f.inbox {
		f.inbox[i] = make(chan envelope, 4096)
	}

	ln, err := net.Listen("tcp", addrs[me])
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addrs[me], err)
	}
	defer ln.Close()
	// Bound mesh formation on the accept side too: a peer that dies
	// before dialing in must surface as an error here, not leave this
	// party blocked in Accept forever.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(dialDeadline))
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)

	// Accept from higher-indexed peers; each introduces itself with its
	// index as the first frame. The handshake carries a read deadline
	// so a connected-but-silent client cannot stall mesh formation.
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
				errs <- fmt.Errorf("transport: tcp handshake: %w", err)
				return
			}
			conn.SetReadDeadline(time.Time{})
			peer, ok := v.(int)
			if !ok || peer <= me || peer >= n || f.conns[peer] != nil {
				conn.Close()
				errs <- fmt.Errorf("transport: invalid handshake from peer %v", v)
				return
			}
			f.attach(peer, conn, rd)
		}
	}()

	// Dial lower-indexed peers, backing off exponentially with jitter so
	// n parties starting at once do not hammer a slow listener in
	// lockstep.
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
					// Sleep backoff ± 50% jitter, then double up to the cap.
					d := backoff/2 + time.Duration(jitter.Int63n(int64(backoff)))
					time.Sleep(d)
					if backoff *= 2; backoff > dialBackoffMax {
						backoff = dialBackoffMax
					}
					continue
				}
				conn.SetWriteDeadline(time.Now().Add(handshakeDeadline))
				if err := wirecodec.WriteValue(conn, me); err != nil {
					conn.Close()
					errs <- fmt.Errorf("transport: tcp handshake: %w", err)
					return
				}
				conn.SetWriteDeadline(time.Time{})
				f.attach(peer, conn, bufio.NewReader(conn))
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// attach wires a handshaken connection: rd is the connection's buffered
// reader (it may already hold bytes past the handshake frame, so the
// pump must read through it, never the bare conn).
func (f *TCPFabric) attach(peer int, conn net.Conn, rd *bufio.Reader) {
	f.mu.Lock()
	f.conns[peer] = conn
	f.mu.Unlock()
	// Reader pump: one goroutine per connection keeps per-sender FIFO
	// order and feeds the inbox. A read or decode failure (connection
	// loss, truncated/garbage/oversized frame) is recorded and the inbox
	// closed, so pending and future receives fail with a typed
	// AbortError naming the sender instead of hanging or panicking.
	// No steady-state read deadline is set here: links are legitimately
	// idle for long stretches (a party receives from a given peer only
	// in certain rounds), and the receive-side timeout already bounds
	// every wait.
	f.pumps.Add(1)
	go func() {
		defer f.pumps.Done()
		fail := func(err error) {
			f.mu.Lock()
			if f.recvErr[peer] == nil {
				f.recvErr[peer] = err
			}
			f.mu.Unlock()
			close(f.inbox[peer])
		}
		for {
			v, err := wirecodec.ReadValue(rd)
			if err != nil {
				fail(err)
				return
			}
			env, ok := v.(envelope)
			if !ok {
				fail(fmt.Errorf("transport: party %d sent a %T frame, want envelope", peer, v))
				return
			}
			atomic.StoreInt64(&f.lastSeen[peer], time.Now().UnixNano())
			select {
			case f.inbox[peer] <- env:
			case <-f.closeCh:
				close(f.inbox[peer])
				return
			}
		}
	}()
}

// N implements Net.
func (f *TCPFabric) N() int { return f.n }

// Send implements Net. Only this party's own index is a valid source.
// When the fabric has a timeout, the write carries it as a deadline so
// a stalled or dead peer surfaces as an error, not a blocked sender.
func (f *TCPFabric) Send(round, from, to, bytes int, payload any) error {
	if from != f.me {
		return fmt.Errorf("transport: tcp party %d cannot send as %d", f.me, from)
	}
	if to < 0 || to >= f.n || to == f.me {
		return fmt.Errorf("transport: invalid destination %d", to)
	}
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
	conn := f.conns[to]
	f.mu.Unlock()

	f.encMu[to].Lock()
	defer f.encMu[to].Unlock()
	if conn == nil {
		return Abort(to, round, "", fmt.Errorf("%w: no connection to party %d", ErrPeerDown, to))
	}
	if f.timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(f.timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if err := wirecodec.WriteValue(conn, envelope{Round: round, Bytes: bytes, Payload: payload}); err != nil {
		if lerr := encodeFault(to, round, err); lerr != nil {
			return lerr
		}
		return Abort(to, round, "", fmt.Errorf("%w: sending to party %d: %v", ErrPeerDown, to, err))
	}
	return nil
}

// RecvCtx implements Net. Only this party's own index is a valid
// receiver. Connection loss surfaces as an AbortError carrying
// ErrPeerDown and the pump's underlying error.
func (f *TCPFabric) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if to != f.me {
		return nil, fmt.Errorf("transport: tcp party %d cannot receive as %d", f.me, to)
	}
	if from < 0 || from >= f.n || from == f.me {
		return nil, fmt.Errorf("transport: invalid source %d", from)
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
	case env, ok := <-f.inbox[from]:
		if !ok {
			return nil, f.peerDown(from, round)
		}
		if round >= 0 && env.Round != round {
			return nil, roundMismatchAbort(from, round, env.Round)
		}
		return env.Payload, nil
	case <-done:
		return nil, Abort(from, round, "", ctx.Err())
	case <-timerC:
		return nil, Abort(from, round, "", ErrTimeout)
	}
}

// peerDown builds the abort for a closed inbox, citing the reader
// pump's underlying error (EOF, reset, decode failure) as the cause.
func (f *TCPFabric) peerDown(from, round int) error {
	f.mu.Lock()
	cause := f.recvErr[from]
	f.mu.Unlock()
	select {
	case <-f.closeCh:
		return Abort(from, round, "", ErrClosed)
	default:
	}
	if cause == nil {
		cause = fmt.Errorf("connection closed")
	}
	return Abort(from, round, "", fmt.Errorf("%w: party %d: %w", ErrPeerDown, from, cause))
}

// Broadcast implements Net, best-effort: every leg is attempted even
// when one fails, so a single dead peer does not keep this party's
// message from the survivors (who could otherwise mis-attribute the
// failure to this party). The first error is returned after all legs.
func (f *TCPFabric) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(f.n, f.me, func(to int) error {
		return f.Send(round, from, to, bytes, payload)
	})
}

// GatherAllCtx implements Net.
func (f *TCPFabric) GatherAllCtx(ctx context.Context, to, round int) ([]any, error) {
	return gatherAll(ctx, f, to, round)
}

// Stats reports this endpoint's traffic in the same per-party shape as
// Fabric.Stats. A TCP endpoint only observes its own sends, so only the
// slot at this party's index is populated; the other slots are zero.
func (f *TCPFabric) Stats() Stats {
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

// SetTelemetry attaches a live metrics registry to this endpoint. Call
// it before protocol traffic starts; a nil registry (or never calling
// it) leaves the hot path with a single nil check per send.
func (f *TCPFabric) SetTelemetry(reg *telemetry.Registry) {
	f.mu.Lock()
	f.tm = newNetMetrics(reg)
	f.mu.Unlock()
}

// Health implements telemetry.HealthSource: the plain fabric's links
// are either connected or dead (there is no reconnect machinery —
// a lost connection stays lost and aborts the session).
func (f *TCPFabric) Health() []telemetry.PeerHealth {
	closed := false
	select {
	case <-f.closeCh:
		closed = true
	default:
	}
	out := make([]telemetry.PeerHealth, 0, f.n-1)
	f.mu.Lock()
	defer f.mu.Unlock()
	for peer := 0; peer < f.n; peer++ {
		if peer == f.me {
			continue
		}
		state := telemetry.StateConnected
		if closed || f.recvErr[peer] != nil || f.conns[peer] == nil {
			state = telemetry.StateDead
		}
		last := int64(-1)
		if ns := atomic.LoadInt64(&f.lastSeen[peer]); ns != 0 {
			last = time.Since(time.Unix(0, ns)).Milliseconds()
		}
		out = append(out, telemetry.PeerHealth{Peer: peer, State: state, LastContactMS: last})
	}
	return out
}

// Close tears down the endpoint gracefully: it stops the reader pumps,
// closes every connection, and waits for the pumps to drain, so no
// goroutine outlives the fabric. Safe to call more than once and
// concurrently with protocol traffic (in-flight receives fail with
// ErrClosed).
func (f *TCPFabric) Close() {
	f.closeOnce.Do(func() {
		close(f.closeCh)
		f.mu.Lock()
		for _, c := range f.conns {
			if c != nil {
				c.Close()
			}
		}
		f.mu.Unlock()
		f.pumps.Wait()
	})
}

// FreeLoopbackAddrs reserves n distinct loopback addresses for tests
// and demos by briefly listening on port 0.
func FreeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs, nil
}
