package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"groupranking/internal/telemetry"
	"groupranking/internal/wirecodec"
)

// This file is the one link layer under every TCP-backed stack: the
// only code in the package that listens, dials, accepts, handshakes,
// pumps, redials and blames a peer. The paper assumes one thing of the
// network — a secure channel between every pair of parties (Section
// III-A) — and this is where that one thing lives. What rides on a
// link (session routing, sequence numbers, journals, heartbeats) is
// the business of the stack above, which sees the link through three
// hooks: onFrame, onUp and onBlame.
//
// Topology: every endpoint listens on its own slot for the mesh's
// lifetime, dials every lower-indexed peer and accepts from every
// higher-indexed one. Each connection opens with a hello in both
// directions; the acceptor validates the dialer's hello before it
// replies, and the dialer counts the link up only on that reply, so a
// rejected dialer backs off instead of believing it is connected.
//
// Fail-fast versus recovering is the value of grace, not a second code
// path. With grace 0 the first loss of a link is final: the peer is
// blamed at once, nothing redials, and the slot admits no second
// connection. With grace > 0 the dialing side redials with backoff, the
// accepting side takes the replacement connection, and the peer is
// blamed only if the link is still down when the grace runs out.

// Mesh-formation, handshake and redial limits.
const (
	dialDeadline      = 10 * time.Second
	dialBackoffBase   = 5 * time.Millisecond
	dialBackoffMax    = 250 * time.Millisecond
	handshakeDeadline = 5 * time.Second
	acceptRetryDelay  = 10 * time.Millisecond
	// handshakesPerParty bounds the connections an endpoint holds inside
	// a hello exchange, per party of its mesh: beyond it an accepted
	// connection is closed at once, so idle or hostile clients cannot
	// pin a goroutine and a reader each for handshakeDeadline.
	handshakesPerParty = 4
)

// listen opens the mesh listener. It is a variable so a test can wrap
// the listener and inject accept errors; nothing else assigns it.
var listen = net.Listen

// hello opens every connection, in both directions. Epoch is the
// sender's boot epoch (0 on a fail-fast mesh, where nothing restarts
// into a live mesh); Mesh is the tag every endpoint of one mesh shares,
// so endpoints of different stacks or sessions never link up.
type hello struct {
	Party int
	Epoch int
	Mesh  string
}

// mesh is one party's endpoint of an n-party TCP mesh. The owning stack
// fills in the configuration and the hooks, then calls start.
type mesh struct {
	addrs []string
	me    int
	tag   string
	epoch int
	// grace is how long a lost link may stay down before the peer is
	// blamed; 0 makes the first loss final.
	grace time.Duration
	// tm yields the per-peer link counters; nil leaves them inert.
	tm func(peer int) linkMetrics

	// onFrame receives every decoded frame on the pump's goroutine; an
	// error takes the link down with that cause. onUp runs after a
	// handshaken connection is installed and before its pump starts.
	// onBlame runs once per outage when the peer is given up on; err
	// wraps ErrPeerDown and the cause the link was lost with. None is
	// called with a mesh lock held.
	onFrame func(peer int, v any) error
	onUp    func(peer, peerEpoch int)
	onBlame func(peer int, err error)

	ln       net.Listener
	wmu      []sync.Mutex   // serialises writes per peer; taken before mu, never after
	lastSeen []atomic.Int64 // unix nanos of the last frame decoded per peer

	mu    sync.Mutex
	peers []meshPeer
	// handshakes holds connections still inside a hello exchange, so
	// Close can cut them loose without waiting out handshakeDeadline.
	handshakes map[net.Conn]struct{}

	ctx       context.Context // cancelled by Close
	cancel    context.CancelFunc
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// meshPeer is the link state for one peer, guarded by mesh.mu.
type meshPeer struct {
	conn net.Conn
	// epoch is the highest boot epoch seen from the peer; a hello
	// announcing an older one is a connection from before its restart.
	epoch int
	// up is closed on the first attach (mesh formation waits on it).
	up       chan struct{}
	attached bool
	// timer is the grace timer armed while the link is down.
	timer  *time.Timer
	blamed bool
	// dialErr is the most recent dial or handshake failure, cited when
	// formation times out.
	dialErr error
	tm      linkMetrics
}

// start validates the configuration, opens the listener and starts the
// accept loop and one maintainer per lower-indexed peer. On a
// recovering mesh every link's grace clock starts now: a peer that
// never shows up is blamed like one that left.
func (m *mesh) start() error {
	n := len(m.addrs)
	if n < 2 {
		return fmt.Errorf("transport: tcp mesh needs at least two parties")
	}
	if m.me < 0 || m.me >= n {
		return fmt.Errorf("transport: party index %d out of range", m.me)
	}
	if err := validateMeshAddrs(m.addrs); err != nil {
		return err
	}
	m.wmu = make([]sync.Mutex, n)
	m.lastSeen = make([]atomic.Int64, n)
	m.peers = make([]meshPeer, n)
	m.handshakes = make(map[net.Conn]struct{})
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for peer := range m.peers {
		m.peers[peer].up = make(chan struct{})
		if m.tm != nil && peer != m.me {
			m.peers[peer].tm = m.tm(peer)
		}
	}
	ln, err := listen("tcp", m.addrs[m.me])
	if err != nil {
		m.cancel()
		return fmt.Errorf("transport: listening on %s: %w", m.addrs[m.me], err)
	}
	m.ln = ln
	if m.grace > 0 {
		m.mu.Lock()
		for peer := range m.peers {
			if peer != m.me {
				m.armGraceLocked(peer, errors.New("never connected"))
			}
		}
		m.mu.Unlock()
	}
	m.wg.Add(1)
	go m.acceptLoop()
	for peer := 0; peer < m.me; peer++ {
		m.wg.Add(1)
		go m.maintain(peer)
	}
	return nil
}

// awaitUp blocks until every link has come up once, or fails after d
// naming the peers still missing.
func (m *mesh) awaitUp(d time.Duration) error {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for peer := range m.peers {
		if peer == m.me {
			continue
		}
		select {
		case <-m.peers[peer].up:
		case <-deadline.C:
			return m.formationErr(d)
		case <-m.done():
			return fmt.Errorf("transport: mesh closed during formation")
		}
	}
	return nil
}

func (m *mesh) formationErr(d time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := fmt.Errorf("transport: mesh formation timed out after %v", d)
	for peer := range m.peers {
		p := &m.peers[peer]
		switch {
		case peer == m.me || p.attached:
		case p.dialErr != nil:
			err = fmt.Errorf("%w; party %d: %w", err, peer, p.dialErr)
		default:
			err = fmt.Errorf("%w; party %d never connected", err, peer)
		}
	}
	return err
}

func (m *mesh) closed() bool { return m.ctx.Err() != nil }

// done is closed when the mesh shuts down.
func (m *mesh) done() <-chan struct{} { return m.ctx.Done() }

// acceptLoop accepts connections for the mesh's lifetime, so a peer
// that lost its link (or restarted) can always dial back in. An accept
// error is retried: one bad client must not end accepting for good.
func (m *mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			select {
			case <-time.After(acceptRetryDelay):
				continue
			case <-m.done():
				return
			}
		}
		m.wg.Add(1)
		go m.handleAccept(conn)
	}
}

// handleAccept runs the accepting side of the handshake: read the
// dialer's hello, validate it, and only then reply and attach. A
// malformed, foreign or stale hello gets the connection closed without
// a reply.
func (m *mesh) handleAccept(conn net.Conn) {
	defer m.wg.Done()
	if !m.track(conn, true) {
		return
	}
	defer m.untrack(conn)
	conn.SetDeadline(time.Now().Add(handshakeDeadline))
	rd := bufio.NewReader(conn)
	h, err := readHello(rd)
	if err != nil || h.Mesh != m.tag || h.Party <= m.me || h.Party >= len(m.addrs) || !m.admits(h.Party, h.Epoch) {
		conn.Close()
		return
	}
	if err := wirecodec.WriteValue(conn, hello{Party: m.me, Epoch: m.epoch, Mesh: m.tag}); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	m.attach(h.Party, h.Epoch, conn, rd)
}

func readHello(rd *bufio.Reader) (hello, error) {
	v, err := wirecodec.ReadValue(rd)
	if err != nil {
		return hello{}, err
	}
	h, ok := v.(hello)
	if !ok {
		return hello{}, fmt.Errorf("transport: handshake frame is a %T, want hello", v)
	}
	return h, nil
}

// track registers a connection entering its handshake; false (and the
// connection closed) when the mesh is already shut, or when an accepted
// connection finds handshakesPerParty·n handshakes already in flight.
func (m *mesh) track(conn net.Conn, accepted bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed() || accepted && len(m.handshakes) >= handshakesPerParty*len(m.addrs) {
		conn.Close()
		return false
	}
	m.handshakes[conn] = struct{}{}
	return true
}

func (m *mesh) untrack(conn net.Conn) {
	m.mu.Lock()
	delete(m.handshakes, conn)
	m.mu.Unlock()
}

// admits reports whether a hello from peer at the given epoch may take
// the peer's slot.
func (m *mesh) admits(peer, epoch int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admitsLocked(peer, epoch)
}

func (m *mesh) admitsLocked(peer, epoch int) bool {
	p := &m.peers[peer]
	if m.grace == 0 && p.attached {
		return false // fail-fast: a slot is filled once
	}
	return epoch >= p.epoch
}

// maintain owns the dialing side of one link: dial and handshake with
// exponential backoff and jitter (so n parties starting at once do not
// hammer a slow listener in lockstep), wait for the connection to die,
// redial. The backoff resets only once a link has delivered a frame, so
// a peer that accepts and then drops us is not dialed in a spin. On a
// fail-fast mesh the first loss ends the maintainer.
func (m *mesh) maintain(peer int) {
	defer m.wg.Done()
	jitter := rand.New(rand.NewSource(int64(m.me)<<16 | int64(peer)))
	backoff := dialBackoffBase
	for {
		lost, err := m.dial(peer)
		if err == nil {
			select {
			case delivered := <-lost:
				if delivered {
					backoff = dialBackoffBase
				}
			case <-m.done():
				return
			}
			if m.grace == 0 {
				return
			}
		} else {
			m.mu.Lock()
			m.peers[peer].dialErr = err
			m.mu.Unlock()
		}
		// Sleep backoff ± 50% jitter, then double up to the cap.
		select {
		case <-time.After(backoff/2 + time.Duration(jitter.Int63n(int64(backoff)))):
		case <-m.done():
			return
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// dial makes one connection attempt to a lower-indexed peer and runs
// the dialing side of the handshake. On success it returns the channel
// the connection's pump reports its end on.
func (m *mesh) dial(peer int) (<-chan bool, error) {
	m.peers[peer].tm.redials.Inc()
	d := net.Dialer{Timeout: handshakeDeadline}
	conn, err := d.DialContext(m.ctx, "tcp", m.addrs[peer])
	if err != nil {
		return nil, fmt.Errorf("dialing party %d: %w", peer, err)
	}
	if !m.track(conn, false) {
		return nil, ErrClosed
	}
	defer m.untrack(conn)
	conn.SetDeadline(time.Now().Add(handshakeDeadline))
	if err := wirecodec.WriteValue(conn, hello{Party: m.me, Epoch: m.epoch, Mesh: m.tag}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake with party %d: %w", peer, err)
	}
	rd := bufio.NewReader(conn)
	h, err := readHello(rd)
	if err == nil && (h.Party != peer || h.Mesh != m.tag) {
		err = fmt.Errorf("answered as party %d of mesh %q", h.Party, h.Mesh)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake with party %d (no reply means it refused our hello): %w", peer, err)
	}
	conn.SetDeadline(time.Time{})
	lost := m.attach(peer, h.Epoch, conn, rd)
	if lost == nil {
		return nil, fmt.Errorf("party %d answered with stale epoch %d", peer, h.Epoch)
	}
	return lost, nil
}

// attach installs a handshaken connection on its link, replacing any
// previous one, clears pending blame and starts the reader pump. rd is
// the connection's buffered reader (it may already hold bytes past the
// hello, so the pump reads through it, never the bare conn). It returns
// nil if the connection was refused (stale epoch, filled fail-fast
// slot, mesh closed), else the channel the pump reports its end on.
func (m *mesh) attach(peer, epoch int, conn net.Conn, rd *bufio.Reader) <-chan bool {
	m.mu.Lock()
	p := &m.peers[peer]
	if m.closed() || !m.admitsLocked(peer, epoch) {
		m.mu.Unlock()
		conn.Close()
		return nil
	}
	p.epoch = epoch
	if p.conn != nil {
		p.conn.Close() // its pump's down call sees the mismatch and does nothing
	}
	// The hello is the connection's first frame. Its time is stored
	// before the connection is published: the heartbeat loop arms a
	// published connection's read deadline from lastSeen, and a stale
	// value there (zero, or the previous connection's last frame) would
	// time the new connection out on its first read.
	m.lastSeen[peer].Store(time.Now().UnixNano())
	p.conn = conn
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.blamed = false
	if !p.attached {
		p.attached = true
		close(p.up)
	}
	m.wg.Add(1)
	m.mu.Unlock()
	p.tm.connects.Inc()
	p.tm.linkUp.Set(1)
	m.onUp(peer, epoch)
	lost := make(chan bool, 1) // the pump's one report; nobody may be listening
	go m.pump(peer, conn, rd, lost)
	return lost
}

// pump is the single reader of a connection: it decodes frames and
// hands them to onFrame until the connection or the stack above fails,
// then takes the link down. No steady-state read deadline is set here:
// links are legitimately idle for long stretches, and a stack that
// wants a liveness bound sets one on conn(peer) itself. It reports on
// lost whether the connection ever delivered a frame.
func (m *mesh) pump(peer int, conn net.Conn, rd *bufio.Reader, lost chan<- bool) {
	defer m.wg.Done()
	delivered := false
	for {
		v, err := wirecodec.ReadValue(rd)
		if err == nil {
			m.lastSeen[peer].Store(time.Now().UnixNano())
			err = m.onFrame(peer, v)
		}
		if err != nil {
			m.down(peer, conn, err)
			lost <- delivered
			return
		}
		delivered = true
	}
}

// down records a lost connection. The conn parameter fences stale
// callers: a pump or writer whose connection was already replaced must
// not tear down its successor. The peer is blamed at once on a
// fail-fast mesh, and on any mesh when the cause is a frame type this
// build has no codec for (not an outage: a redial would only fetch
// more of the same); otherwise the grace clock starts. The connection
// is closed under the lock, so the first cause to arrive is the one
// recorded: a writer that fails only because this close cut its write
// short finds the link already taken down.
func (m *mesh) down(peer int, conn net.Conn, cause error) {
	m.mu.Lock()
	conn.Close()
	p := &m.peers[peer]
	if p.conn != conn || m.closed() {
		m.mu.Unlock()
		return
	}
	p.conn = nil
	var unknown *wirecodec.UnknownTypeError
	final := m.grace == 0 || errors.As(cause, &unknown)
	if !final {
		m.armGraceLocked(peer, cause)
	}
	m.mu.Unlock()
	p.tm.linkUp.Set(0)
	if final {
		m.blame(peer, fmt.Errorf("%w: party %d: %w", ErrPeerDown, peer, cause))
	}
}

func (m *mesh) armGraceLocked(peer int, cause error) {
	m.peers[peer].timer = time.AfterFunc(m.grace, func() {
		m.blame(peer, fmt.Errorf("%w: party %d did not reconnect within the %v grace: %w", ErrPeerDown, peer, m.grace, cause))
	})
}

// blame gives up on a peer whose link is (still) down.
func (m *mesh) blame(peer int, err error) {
	m.mu.Lock()
	p := &m.peers[peer]
	if p.conn != nil || p.blamed || m.closed() {
		m.mu.Unlock()
		return // the link came back, or there is nobody left to tell
	}
	p.blamed = true
	m.mu.Unlock()
	m.onBlame(peer, err)
}

// conn returns the current connection to a peer, nil while the link is
// down.
func (m *mesh) conn(peer int) net.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[peer].conn
}

// write serialises one frame onto the current connection to a peer;
// see writeOn.
func (m *mesh) write(to, round int, timeout time.Duration, frame any) error {
	return m.writeOn(m.conn(to), to, round, timeout, frame)
}

// writeOn serialises one frame — a value to encode, or a []byte holding
// one frame its caller already encoded — onto conn, which is what
// conn(to) returned at some point (a stack whose frames must not jump
// from a lost connection to its replacement pins the one it means; nil
// is "no connection"). The write carries a deadline (timeout <= 0:
// none), so a stalled or dead peer surfaces as an error, not a blocked
// sender. A frame that cannot be encoded is the sender's own fault
// (encodeFault) and leaves the link untouched; an I/O failure may have
// left half a frame on the wire, so it takes the link down and is
// reported as an abort naming the peer.
func (m *mesh) writeOn(conn net.Conn, to, round int, timeout time.Duration, frame any) error {
	if conn == nil {
		return Abort(to, round, "", fmt.Errorf("%w: no connection to party %d", ErrPeerDown, to))
	}
	m.wmu[to].Lock()
	defer m.wmu[to].Unlock()
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	var err error
	if raw, ok := frame.([]byte); ok {
		_, err = conn.Write(raw)
	} else {
		err = wirecodec.WriteValue(conn, frame)
	}
	if err == nil {
		return nil
	}
	if lerr := encodeFault(to, round, err); lerr != nil {
		return lerr
	}
	m.down(to, conn, err)
	return Abort(to, round, "", fmt.Errorf("%w: sending to party %d: %v", ErrPeerDown, to, err))
}

// Health reports every peer link for /healthz: connected, reconnecting
// (down but inside the grace), or dead (blamed, fail-fast and lost, or
// the mesh is closed).
func (m *mesh) Health() []telemetry.PeerHealth {
	out := make([]telemetry.PeerHealth, 0, len(m.peers)-1)
	m.mu.Lock()
	defer m.mu.Unlock()
	for peer := range m.peers {
		if peer == m.me {
			continue
		}
		p := &m.peers[peer]
		h := telemetry.PeerHealth{Peer: peer, State: telemetry.StateReconnecting, LastContactMS: -1}
		switch {
		case m.closed() || p.blamed || (m.grace == 0 && p.conn == nil):
			h.State = telemetry.StateDead
		case p.conn != nil:
			h.State = telemetry.StateConnected
		}
		if ns := m.lastSeen[peer].Load(); ns != 0 {
			h.LastContactMS = time.Since(time.Unix(0, ns)).Milliseconds()
		}
		out = append(out, h)
	}
	return out
}

// Close tears the mesh down: the listener, every connection (attached
// or mid-handshake), every grace timer, and it waits for the accept
// loop, the maintainers, the handshakes and the pumps to exit. Safe to
// call more than once and concurrently with traffic.
func (m *mesh) Close() {
	m.closeOnce.Do(func() {
		m.cancel()
		m.ln.Close()
		m.mu.Lock()
		for peer := range m.peers {
			p := &m.peers[peer]
			if p.timer != nil {
				p.timer.Stop()
			}
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
		}
		for c := range m.handshakes {
			c.Close()
		}
		m.mu.Unlock()
		m.wg.Wait()
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
