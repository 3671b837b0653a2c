package transport

import (
	"time"

	"groupranking/internal/telemetry"
)

// TCPFabric implements Net over real TCP connections, so the protocol
// stack runs unchanged across processes or machines — the deployment
// shape the paper's "fully distributed framework" implies. It is a
// fail-fast SessionMux carrying exactly one session: each pair of
// parties shares one duplex TCP connection (link.go) carrying muxEnv
// frames (length-prefixed, versioned binary), and per-sender FIFO
// ordering is TCP's ordering. A one-shot party and a daemon
// session therefore run the same send and receive code.
//
// Failure behaviour: a lost connection or a malformed frame is detected
// by the link's reader pump and surfaces on the next receive as a
// typed *AbortError naming the peer (ErrPeerDown), never as a hang or
// a decode panic; nothing reconnects. Writes carry a deadline so a
// stalled peer cannot block a sender forever.
//
// Payload types that cross a TCPFabric use the wirecodec codecs their
// packages register from init. A payload without one does not cross:
// Send returns the codec's encode error, blaming nobody.
type TCPFabric struct{ sessionFabric }

// sessionFabric is a SessionMux carrying exactly one session, which owns
// the mux: the shape of both TCP fabrics. Send, RecvCtx, Stats and the
// rest of Net are the mux session's own.
type sessionFabric struct {
	*MuxSession
	mesh *mesh // the mux's link layer
}

var _ Net = (*TCPFabric)(nil)

// tcpFabricSID is the route tag of a TCPFabric's one session.
const tcpFabricSID = "tcp"

// NewTCPFabric builds party me's endpoint of an n-party mesh. addrs
// lists every party's listen address (host:port); the function listens
// on addrs[me], dials every lower-indexed party (with exponential
// backoff and jitter while they come up), accepts connections from
// every higher-indexed one, and returns when the mesh is complete.
// All parties must call it concurrently. timeout bounds each receive
// wait and each write; <= 0 means no bound.
func NewTCPFabric(addrs []string, me int, timeout time.Duration) (*TCPFabric, error) {
	mux, err := newSessionMux(addrs, me, timeout, MuxOptions{}, "tcp", true)
	if err != nil {
		return nil, err
	}
	s, err := mux.Open(tcpFabricSID, timeout)
	if err != nil {
		mux.Close()
		return nil, err
	}
	return &TCPFabric{sessionFabric{MuxSession: s, mesh: mux.link}}, nil
}

// SetTelemetry attaches a live metrics registry to this endpoint: it
// sets the send ledger's live view (metrics.go). The mux under a
// TCPFabric was built without a registry, so the link family
// (mux_link_*) is not served; a stack that needs it is a SessionMux or
// RecoveringTCPFabric built with Telemetry. Call it before protocol
// traffic starts; a nil registry (or never calling it) leaves the hot
// path with a single nil check per send.
func (f *TCPFabric) SetTelemetry(reg *telemetry.Registry) {
	f.sendStats.mu.Lock()
	f.sendStats.tm = newNetMetrics(reg)
	f.sendStats.mu.Unlock()
}

// Health implements telemetry.HealthSource: connected, reconnecting
// (recovering fabric only: down but inside the grace) or dead.
func (f *sessionFabric) Health() []telemetry.PeerHealth { return f.m.Health() }

// Close tears down the endpoint: it closes every connection and waits
// for the mux's goroutines, so none outlives the fabric. Safe to call
// more than once and concurrently with protocol traffic (in-flight
// receives fail with ErrClosed).
func (f *sessionFabric) Close() {
	f.MuxSession.Close()
	f.m.Close()
}
