package telemetry

// Peer link states as /healthz reports them. The transport maps its
// internal link machinery onto three operator-facing states: a link
// that is up, a link that is down but still inside the reconnect grace
// window, and a link that is gone for good (blame fired, a fatal
// protocol error, or a fail-fast fabric's connection loss).
const (
	StateConnected    = "connected"
	StateReconnecting = "reconnecting"
	StateDead         = "dead"
)

// PeerHealth is one peer link's live state, as reported by a fabric's
// Health method and rendered by /healthz.
type PeerHealth struct {
	// Peer is the remote party's index.
	Peer int `json:"peer"`
	// State is one of StateConnected, StateReconnecting, StateDead.
	State string `json:"state"`
	// LastContactMS is how many milliseconds ago this endpoint last
	// heard anything (a hello, data or a heartbeat) from the peer; -1
	// before first contact.
	LastContactMS int64 `json:"last_contact_ms"`
	// HeartbeatRTTMS is the most recent heartbeat round-trip time in
	// milliseconds, 0 until one has been measured (recovering links
	// only).
	HeartbeatRTTMS float64 `json:"heartbeat_rtt_ms,omitempty"`
}

// HealthSource is implemented by the transport fabrics: a live per-peer
// link state snapshot. The admin endpoint resolves it through the
// registry at request time, because the fabric is constructed after the
// admin server starts listening.
type HealthSource interface {
	Health() []PeerHealth
}

// SetHealthSource installs (or replaces) the fabric the /healthz
// endpoint reports on. Safe to call at any time, including never — the
// endpoint reports "starting" until a source exists.
func (r *Registry) SetHealthSource(h HealthSource) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.health = h
	r.mu.Unlock()
}

// healthSource returns the installed source, or nil.
func (r *Registry) healthSource() HealthSource {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// ServiceStatus is the service-tier block a daemon contributes to
// /healthz on top of the per-peer link states: its session lifecycle
// census and whether it is draining. A draining daemon reports
// non-200 so load balancers stop routing new work to it while its
// running sessions finish.
type ServiceStatus struct {
	// Draining is true once graceful shutdown began: admission is
	// closed and only already-running sessions continue.
	Draining bool `json:"draining"`
	// Epoch counts the daemon's process lives (durable mode only;
	// omitted when zero).
	Epoch int `json:"epoch,omitempty"`
	// Sessions counts hosted sessions per lifecycle state.
	Sessions map[string]int `json:"sessions"`
}

// SetServiceStatus installs the callback /healthz uses to render the
// service block. Nil-registry and nil-callback safe.
func (r *Registry) SetServiceStatus(f func() ServiceStatus) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.svcStatus = f
	r.mu.Unlock()
}

// serviceStatus returns the installed callback, or nil.
func (r *Registry) serviceStatus() func() ServiceStatus {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.svcStatus
}
