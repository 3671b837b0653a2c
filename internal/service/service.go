// Package service implements rankd, the long-running ranking
// coordinator daemon: one process per mesh slot (daemon 0 plays the
// initiator, daemon j the j-th participant) hosting many concurrent
// ranking sessions over a single multiplexed connection per peer pair
// (transport.SessionMux). Clients drive it through the submit/poll
// HTTP API defined in internal/api; the per-session protocol execution
// is exactly the existing core machinery — a seeded service session is
// byte-identical to the in-process groupranking.Rank run with the same
// seed.
//
// Lifecycle: a session is created pending at every daemon (the
// initiator's POST /v1/sessions fans a control-plane open out to the
// participant daemons and waits for their admission acks), moves to
// establishing once the daemon's runner joins the pre-crypto session
// handshake — immediately for the initiator, on profile submission for
// a participant — to running when the handshake agrees, and ends done
// or aborted. Finished sessions are retained for Config.ResultTTL so
// clients can poll the outcome, then purged by the janitor.
package service

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"groupranking"
	"groupranking/internal/api"
	"groupranking/internal/core"
	"groupranking/internal/telemetry"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// Config tunes one rankd daemon. The zero value of every knob takes a
// sensible default; Addrs and Me are required.
type Config struct {
	// Addrs is the daemon mesh: addrs[0] is the initiator daemon,
	// addrs[j] participant daemon j, each listening on its own slot.
	// Every daemon of a deployment must agree on the list.
	Addrs []string
	// Me is this daemon's slot in Addrs.
	Me int
	// MaxSessions is the admission cap: the most sessions this daemon
	// will host concurrently in a non-terminal state (default 64).
	// Creations and control-plane opens beyond it are rejected with
	// api.CodeAdmissionFull — the client retries or backs off.
	MaxSessions int
	// ResultTTL is how long a finished session's result stays pollable
	// before the janitor purges it (default 5 minutes).
	ResultTTL time.Duration

	// Runtime is the public API's execution-knob block, embedded
	// verbatim: Timeout is the default (and ceiling) for each
	// session's budget — a SessionSpec.TimeoutMS may shrink it, never
	// exceed it (default 2 minutes); Workers bounds each session's
	// crypto parallelism.
	groupranking.Runtime
	// Recovery, when set, makes the daemon durable: every session
	// journals its transcript and lifecycle under Recovery.Dir, the
	// mesh runs the reconnecting epoch'd mux, and a restarted daemon
	// re-adopts its sessions — terminal results stay pollable,
	// interrupted sessions resume byte-identically.
	Recovery *groupranking.RecoveryOptions
	// Telemetry, when set, collects the mux link and service session
	// metrics (rankd: its Observer's metric store, which -admin serves).
	Telemetry *telemetry.Registry
}

// ErrBadConfig is the typed startup failure for a Config the daemon
// refuses — a slot outside the mesh, a negative cap or TTL, or runtime
// or recovery settings their Validate rejects — before it touches the
// mesh. cmd/rankd maps it to exit code 2, like ErrBadJournalDir.
var ErrBadConfig = errors.New("bad daemon config")

// withDefaults resolves the config and validates it.
func (c Config) withDefaults() (Config, error) {
	bad := func(format string, args ...any) (Config, error) {
		return c, fmt.Errorf("service: %w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
	}
	if c.Me < 0 || c.Me >= len(c.Addrs) {
		return bad("me=%d outside the %d-address mesh", c.Me, len(c.Addrs))
	}
	if len(c.Addrs) < 3 {
		return bad("need the initiator plus at least two participant daemons, got %d addresses", len(c.Addrs))
	}
	if c.MaxSessions < 0 {
		return bad("MaxSessions=%d negative", c.MaxSessions)
	}
	if c.ResultTTL < 0 {
		return bad("ResultTTL=%v negative", c.ResultTTL)
	}
	if err := c.Runtime.Validate(); err != nil {
		return bad("%v", err)
	}
	if err := c.Recovery.Validate(); err != nil {
		return bad("%v", err)
	}
	c.MaxSessions = cmp.Or(c.MaxSessions, 64)
	c.ResultTTL = cmp.Or(c.ResultTTL, 5*time.Minute)
	c.Timeout = cmp.Or(c.Timeout, core.DefaultTimeout)
	return c, nil
}

// Daemon is one rankd process's state: the shared session mux, the
// session table, and the control-plane plumbing. Create with NewDaemon,
// serve Handler() over HTTP, Close() to shut down.
type Daemon struct {
	cfg Config
	mux *transport.SessionMux

	// FaultPlanner, when set before any session is created, lets tests
	// inject a per-session fault plan: it is consulted once per session
	// with its ID and spec, and the returned plan (nil for none) wraps
	// that session's net in a FaultNet. Production daemons leave it
	// nil.
	FaultPlanner func(sessionID string, spec api.SessionSpec) *transport.FaultPlan

	mu       sync.Mutex
	sessions map[string]*session
	acks     map[string]chan ctlOpenAck
	keys     map[string]string // idempotency key -> session id
	draining bool

	// Durable state (nil with Config.Recovery unset).
	store *store
	lock  *os.File // flock'd journal-dir slot lock
	epoch int      // this process life's number, 1-based

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once

	met serviceMetrics
}

// Typed admission outcomes. register wraps them so the HTTP and
// control planes can map the cause to the right client-visible code
// (429 admission_full vs 503 draining, both with Retry-After).
var (
	errAdmissionFull = errors.New("admission cap reached")
	errDraining      = errors.New("draining")
)

// session is one ranking session's slot in the daemon table.
type session struct {
	id      string
	spec    api.SessionSpec
	params  core.Params
	q       *workload.Questionnaire
	timeout time.Duration
	created time.Time

	// profile is participant j's private input at daemon j, set on
	// submit; the initiator's criterion is spec.Criterion.
	profile workload.Profile

	mu          sync.Mutex
	state       string
	started     bool // runner spawned (participant: profile consumed)
	cancel      context.CancelFunc
	abortReason string
	result      *api.ResultResponse
	doneAt      time.Time
}

// serviceMetrics is the daemon's slice of the telemetry registry. All
// fields are nil (and every operation a no-op) with telemetry disabled.
type serviceMetrics struct {
	created  *telemetry.Counter
	done     *telemetry.Counter
	aborted  *telemetry.Counter
	rejected *telemetry.Counter
	live     *telemetry.Gauge
	liveN    int64 // guarded by Daemon.mu
}

func newServiceMetrics(reg *telemetry.Registry) serviceMetrics {
	return serviceMetrics{
		created:  reg.Counter("service_sessions_created_total", "Sessions admitted by this daemon."),
		done:     reg.Counter("service_sessions_done_total", "Sessions that completed successfully."),
		aborted:  reg.Counter("service_sessions_aborted_total", "Sessions that ended in an abort."),
		rejected: reg.Counter("service_admission_rejects_total", "Session creations refused by the admission cap."),
		live:     reg.Gauge("service_sessions_live", "Sessions currently in a non-terminal state."),
	}
}

// NewDaemon joins the daemon mesh (blocking until every peer daemon is
// up, exactly like the party runners' mesh formation) and starts the
// control-plane and janitor loops. The caller serves Handler() and
// must Close() the daemon to release the mesh.
func NewDaemon(cfg Config) (*Daemon, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Durable mode boots before the mesh: validate and lock the journal
	// dir, load the session table, and carry the boot epoch into the
	// mux's reconnect handshake so peers can tell this life's
	// connections from the last one's.
	var (
		st     *store
		lock   *os.File
		stored map[string]*storedSession
		epoch  int
	)
	if cfg.Recovery != nil {
		if err := validateJournalDir(cfg.Recovery.Dir); err != nil {
			return nil, err
		}
		if lock, err = lockJournalDir(cfg.Recovery.Dir, cfg.Me); err != nil {
			return nil, err
		}
		if st, stored, epoch, err = openStore(storePath(cfg.Recovery.Dir, cfg.Me)); err != nil {
			lock.Close()
			return nil, err
		}
	}

	muxOpts := transport.MuxOptions{Telemetry: cfg.Telemetry}
	if cfg.Recovery != nil {
		muxOpts.Recovery = &transport.MuxRecovery{Epoch: epoch, Grace: cfg.Recovery.Grace}
	}
	mux, err := transport.NewSessionMux(cfg.Addrs, cfg.Me, cfg.Timeout, muxOpts)
	if err != nil {
		if st != nil {
			st.Close()
			lock.Close()
		}
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:      cfg,
		mux:      mux,
		sessions: make(map[string]*session),
		acks:     make(map[string]chan ctlOpenAck),
		keys:     make(map[string]string),
		store:    st,
		lock:     lock,
		epoch:    epoch,
		ctx:      ctx,
		cancel:   cancel,
		met:      newServiceMetrics(cfg.Telemetry),
	}
	cfg.Telemetry.SetHealthSource(mux)
	cfg.Telemetry.SetServiceStatus(d.Status)
	if stored != nil {
		d.readopt(stored)
	}
	d.wg.Add(2)
	go d.controlLoop()
	go d.janitor()
	return d, nil
}

// Me returns this daemon's mesh slot (0 = initiator daemon).
func (d *Daemon) Me() int { return d.cfg.Me }

// Close shuts the daemon down: every in-flight session aborts (in
// durable mode their terminal state is NOT recorded — a restart
// re-adopts and resumes them instead), the mesh connections close,
// and all daemon goroutines exit before Close returns.
func (d *Daemon) Close() {
	d.closeOnce.Do(func() {
		d.cancel()
		d.mux.Close()
		d.wg.Wait()
		if d.store != nil {
			d.store.Close()
			d.lock.Close()
		}
	})
}

// BeginDrain closes admission: creations, announcements and first
// profile submissions are rejected with the typed draining code (and a
// Retry-After) from here on, while already-running sessions keep
// going. Idempotent; there is no way back short of a restart.
func (d *Daemon) BeginDrain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
}

// Draining reports whether BeginDrain was called.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drain is the graceful-shutdown front half: stop admitting, give the
// sessions whose runners are already executing up to budget to finish,
// and return how many non-terminal sessions remain. In durable mode
// the remainder is parked — the store still holds them non-terminal,
// so the next life re-adopts and resumes them; without recovery the
// caller's Close simply aborts them. Callers follow with Close.
func (d *Daemon) Drain(budget time.Duration) int {
	d.BeginDrain()
	deadline := time.Now().Add(budget)
	for {
		d.mu.Lock()
		running, live := 0, 0
		for _, s := range d.sessions {
			s.mu.Lock()
			if !api.Terminal(s.state) {
				live++
				if s.started {
					running++
				}
			}
			s.mu.Unlock()
		}
		d.mu.Unlock()
		if running == 0 || time.Now().After(deadline) {
			return live
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Status is the service block /healthz renders: per-state session
// counts, the drain flag, and (in durable mode) the boot epoch.
func (d *Daemon) Status() telemetry.ServiceStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	counts := map[string]int{
		api.StatePending: 0, api.StateEstablishing: 0, api.StateRunning: 0,
		api.StateDone: 0, api.StateAborted: 0,
	}
	for _, s := range d.sessions {
		counts[s.snapshotState()]++
	}
	return telemetry.ServiceStatus{Draining: d.draining, Epoch: d.epoch, Sessions: counts}
}

// Handler returns the daemon's HTTP API (see internal/api for the
// contract); the caller owns the listener.
func (d *Daemon) Handler() http.Handler { return d.routes() }

// newSessionID draws a fresh 64-bit random session identifier.
func newSessionID() (string, error) {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("service: drawing session id: %w", err)
	}
	return hex.EncodeToString(raw[:]), nil
}

// resolveSpec validates a session spec against this daemon's mesh and
// resolves the defaulted protocol parameters, questionnaire and
// timeout budget every daemon of the session must agree on.
func (d *Daemon) resolveSpec(spec api.SessionSpec) (core.Params, *workload.Questionnaire, time.Duration, error) {
	fail := func(err error) (core.Params, *workload.Questionnaire, time.Duration, error) {
		return core.Params{}, nil, 0, err
	}
	q, err := workload.NewQuestionnaire(spec.Attributes)
	if err != nil {
		return fail(err)
	}
	g, err := core.GroupByName(spec.GroupName)
	if err != nil {
		return fail(err)
	}
	sorter, err := core.ParseSorter(spec.Sorter)
	if err != nil {
		return fail(fmt.Errorf("service: %w", err))
	}
	params := core.Params{
		N: len(d.cfg.Addrs) - 1, M: q.M(), T: q.T(),
		D1: spec.D1, D2: spec.D2, H: spec.H, K: spec.K,
		Group: g, Sorter: sorter,
		ProveDecryption: spec.ProveDecryption, Workers: d.cfg.Workers,
	}.WithDefaults()
	if err := params.Validate(); err != nil {
		return fail(err)
	}
	// The daemon's configured budget is a hard ceiling: a spec may
	// shrink its session's budget, never extend it.
	timeout := d.cfg.Timeout
	if spec.TimeoutMS < 0 {
		return fail(fmt.Errorf("service: timeout_ms=%d negative", spec.TimeoutMS))
	}
	if t := time.Duration(spec.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	return params, q, timeout, nil
}

// register admits a new session under the cap, or reports the reason
// it cannot (wrapping errDraining / errAdmissionFull so callers can
// map the cause to the right reject code). A non-empty idempotency
// key is bound atomically with the admission.
func (d *Daemon) register(s *session) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		d.met.rejected.Inc()
		return fmt.Errorf("service: daemon %d is %w and admits no new sessions", d.cfg.Me, errDraining)
	}
	live := 0
	for _, other := range d.sessions {
		if !api.Terminal(other.snapshotState()) {
			live++
		}
	}
	if live >= d.cfg.MaxSessions {
		d.met.rejected.Inc()
		return fmt.Errorf("service: daemon %d is at its %d-session admission cap: %w", d.cfg.Me, d.cfg.MaxSessions, errAdmissionFull)
	}
	if _, dup := d.sessions[s.id]; dup {
		return fmt.Errorf("service: session %s already exists", s.id)
	}
	d.sessions[s.id] = s
	if key := s.spec.IdempotencyKey; key != "" {
		d.keys[key] = s.id
	}
	d.met.created.Inc()
	d.met.liveN++
	d.met.live.Set(float64(d.met.liveN))
	return nil
}

// unregister rolls an admission back (store write failed after
// register succeeded); the session never existed as far as clients
// are concerned.
func (d *Daemon) unregister(s *session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.sessions[s.id]; !ok {
		return
	}
	delete(d.sessions, s.id)
	if key := s.spec.IdempotencyKey; key != "" && d.keys[key] == s.id {
		delete(d.keys, key)
	}
	d.met.liveN--
	d.met.live.Set(float64(d.met.liveN))
}

// lookupKey resolves an idempotency key to its bound session.
func (d *Daemon) lookupKey(key string) *session {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.keys[key]; ok {
		return d.sessions[id]
	}
	return nil
}

// lookup finds a session by ID (nil when unknown or already purged).
func (d *Daemon) lookup(id string) *session {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sessions[id]
}

// janitor is the retention loop: finished sessions past the result TTL
// are purged, and pending sessions that never received their profile
// within the session budget are aborted so they cannot pin the
// admission cap forever.
func (d *Daemon) janitor() {
	defer d.wg.Done()
	tick := d.cfg.ResultTTL / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case now := <-t.C:
			d.sweep(now)
		}
	}
}

// sweep runs one janitor pass.
func (d *Daemon) sweep(now time.Time) {
	d.mu.Lock()
	var purge []string
	var stale []*session
	for id, s := range d.sessions {
		s.mu.Lock()
		terminal := api.Terminal(s.state)
		doneAt := s.doneAt
		pendingPastBudget := s.state == api.StatePending && !s.started && now.Sub(s.created) > s.timeout
		s.mu.Unlock()
		switch {
		case terminal && now.Sub(doneAt) > d.cfg.ResultTTL:
			purge = append(purge, id)
		case pendingPastBudget:
			stale = append(stale, s)
		}
	}
	for _, id := range purge {
		s := d.sessions[id]
		delete(d.sessions, id)
		if s != nil {
			if key := s.spec.IdempotencyKey; key != "" && d.keys[key] == id {
				delete(d.keys, key)
			}
		}
	}
	d.mu.Unlock()
	for _, id := range purge {
		// Durable mode: the purge is durable too — the table forgets the
		// session, its transport journal is deleted, and the mux stops
		// answering resume requests for it.
		if d.store != nil {
			_ = d.store.logPurge(id)
			d.mux.DropResumable(id)
			os.Remove(d.sessionJournalPath(id))
		}
	}
	for _, s := range stale {
		d.terminate(s, fmt.Errorf("service: no profile submitted within the session's %v budget", s.timeout))
	}
}

// snapshotState reads the session state under its lock.
func (s *session) snapshotState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// info builds the session's SessionInfo snapshot.
func (s *session) info(parties int) api.SessionInfo {
	return api.SessionInfo{ID: s.id, State: s.snapshotState(), Parties: parties}
}

// terminate force-aborts a session whose runner never started (or, if
// one did, cancels it and lets the runner record the abort). Used by
// the control-plane abort path and the janitor.
func (d *Daemon) terminate(s *session, cause error) {
	s.mu.Lock()
	if api.Terminal(s.state) {
		s.mu.Unlock()
		return
	}
	if s.abortReason == "" {
		s.abortReason = cause.Error()
	}
	if s.started {
		// The runner owns the terminal transition; cancelling its
		// context makes it record the abort with the stored reason.
		cancel := s.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return
	}
	s.state = api.StateAborted
	s.result = &api.ResultResponse{ID: s.id, State: api.StateAborted, Error: s.abortReason}
	res := s.result
	s.doneAt = time.Now()
	s.mu.Unlock()
	if d.store != nil && d.ctx.Err() == nil {
		_ = d.store.logDone(s.id, res)
	}
	d.sessionEnded(false)
}

// sessionEnded updates the live gauge and outcome counters once per
// session reaching a terminal state.
func (d *Daemon) sessionEnded(ok bool) {
	d.mu.Lock()
	d.met.liveN--
	d.met.live.Set(float64(d.met.liveN))
	d.mu.Unlock()
	if ok {
		d.met.done.Inc()
	} else {
		d.met.aborted.Inc()
	}
}
