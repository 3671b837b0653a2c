package transport

import (
	"time"

	"groupranking/internal/telemetry"
)

// Live telemetry for the protocol traffic of one TCP-backed endpoint.
// The obsv layer counts what the *protocol* sends per phase and party
// after the run; these counters stream the same sends live, with the
// round cadence, for the admin endpoint. What the links underneath do
// — redials, connects, retransmissions, heartbeat RTT — is the mux's
// bundle (muxMetrics). A nil *netMetrics (telemetry disabled) makes
// every hook a single nil check.

// netMetrics bundles the handles one fabric endpoint feeds.
type netMetrics struct {
	msgs      *telemetry.Counter
	bytes     *telemetry.Counter
	echoMsgs  *telemetry.Counter
	echoBytes *telemetry.Counter
	rounds    *telemetry.Counter

	// roundSeconds observes the wall time between the first sends of
	// successive protocol rounds — the live per-round cadence.
	roundSeconds *telemetry.Histogram

	lastRound time.Time // guarded by the owning fabric's stats mutex
}

func newNetMetrics(reg *telemetry.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		msgs:      reg.Counter("transport_msgs_total", "Protocol messages sent by this endpoint."),
		bytes:     reg.Counter("transport_bytes_total", "Protocol bytes sent by this endpoint."),
		echoMsgs:  reg.Counter("transport_echo_msgs_total", "Echo-broadcast sub-round messages sent (consistency overhead, outside the protocol counters)."),
		echoBytes: reg.Counter("transport_echo_bytes_total", "Echo-broadcast sub-round bytes sent."),
		rounds:    reg.Counter("transport_rounds_total", "Distinct protocol rounds this endpoint has sent in."),
		roundSeconds: reg.Histogram("transport_round_seconds",
			"Wall time between the first sends of successive protocol rounds.",
			telemetry.ExpBuckets(0.001, 4, 10)), // 1ms .. ~262s
	}
}

// onSendLocked feeds the protocol-traffic counters. It must run inside
// the same critical section as the fabric's Stats accounting (the
// caller holds the stats mutex), so the exported counters and Stats can
// never disagree about whether a round has started.
func (m *netMetrics) onSendLocked(round, bytes int, newRound bool) {
	if m == nil {
		return
	}
	if IsEchoRound(round) {
		m.echoMsgs.Inc()
		m.echoBytes.Add(int64(bytes))
		return
	}
	m.msgs.Inc()
	m.bytes.Add(int64(bytes))
	if newRound {
		m.rounds.Inc()
		now := time.Now()
		if !m.lastRound.IsZero() {
			m.roundSeconds.Observe(now.Sub(m.lastRound).Seconds())
		}
		m.lastRound = now
	}
}
