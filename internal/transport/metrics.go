package transport

import (
	"time"

	"groupranking/internal/telemetry"
)

// The live view of the send ledger (endpoint.go's sendStats). The obsv
// layer counts what the *protocol* sends per phase and party after the
// run; these counters stream the same sends live, with the round
// cadence, for the admin endpoint. A mux builds one view and every
// session it carries feeds it, so a daemon's counters sum its sessions
// and a TCPFabric's are its one session's. What the links
// underneath do — redials, connects, retransmissions, heartbeat RTT —
// is the mux's bundle (muxMetrics). A nil *netMetrics (telemetry
// disabled) makes every hook a single nil check.

// netMetrics bundles the handles the ledger feeds.
type netMetrics struct {
	msgs      *telemetry.Counter
	bytes     *telemetry.Counter
	echoMsgs  *telemetry.Counter
	echoBytes *telemetry.Counter
	rounds    *telemetry.Counter

	// roundSeconds observes the wall time between the first sends of
	// successive protocol rounds of one ledger — the live per-round
	// cadence.
	roundSeconds *telemetry.Histogram
}

func newNetMetrics(reg *telemetry.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		msgs:      reg.Counter("mux_session_msgs_total", "Protocol messages sent by this endpoint, summed over its sessions."),
		bytes:     reg.Counter("mux_session_bytes_total", "Protocol bytes sent by this endpoint, summed over its sessions."),
		echoMsgs:  reg.Counter("transport_echo_msgs_total", "Echo-broadcast sub-round messages sent (consistency overhead, outside the protocol counters)."),
		echoBytes: reg.Counter("transport_echo_bytes_total", "Echo-broadcast sub-round bytes sent."),
		rounds:    reg.Counter("transport_rounds_total", "Distinct protocol rounds sent in, summed over this endpoint's sessions."),
		roundSeconds: reg.Histogram("transport_round_seconds",
			"Wall time between the first sends of successive protocol rounds of one session.",
			telemetry.ExpBuckets(0.001, 4, 10)), // 1ms .. ~262s
	}
}

// onSendLocked feeds the protocol-traffic counters. It must run inside
// the ledger's critical section (the caller holds its mutex and passes
// its lastRound), so the exported counters and Stats can never disagree
// about whether a round has started.
func (m *netMetrics) onSendLocked(round, bytes int, newRound bool, lastRound *time.Time) {
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
		if !lastRound.IsZero() {
			m.roundSeconds.Observe(now.Sub(*lastRound).Seconds())
		}
		*lastRound = now
	}
}
