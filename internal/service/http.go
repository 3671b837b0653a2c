package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"groupranking/internal/api"
	"groupranking/internal/workload"
)

// The submit/poll HTTP API (contract in internal/api). Every daemon
// serves the same routes; role-specific endpoints answer
// api.CodeWrongRole at the wrong daemon so a misdirected client learns
// where to go instead of timing out.

// maxBodyBytes bounds request bodies; specs and profiles are tiny.
const maxBodyBytes = 1 << 20

// routes builds the daemon's ServeMux.
func (d *Daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathSessions, d.handleCreate)
	mux.HandleFunc("GET "+api.PathSessions, d.handleList)
	mux.HandleFunc("GET "+api.PathSessions+"/{id}", d.handleInfo)
	mux.HandleFunc("POST "+api.PathSessions+"/{id}/submit", d.handleSubmit)
	mux.HandleFunc("GET "+api.PathSessions+"/{id}/result", d.handleResult)
	return mux
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes the typed JSON error body.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.Error{Code: code, Message: fmt.Sprintf(format, args...)})
}

// Retry-After hints for the two retryable reject codes: admission
// pressure clears as fast as sessions finish; a drain only clears once
// the restarted daemon is back.
const (
	retryAfterAdmission = 1 * time.Second
	retryAfterDraining  = 2 * time.Second
)

// writeRetryErr is writeErr plus a Retry-After header — the overload
// and drain rejects, which the client's retry helper backs off on.
func writeRetryErr(w http.ResponseWriter, status int, code string, after time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(after/time.Second)))
	writeErr(w, status, code, format, args...)
}

// writeAdmissionErr maps a register/announce failure to its HTTP
// shape: draining and admission_full are retryable (503/429 with
// Retry-After), anything else falls through to the given default.
func writeAdmissionErr(w http.ResponseWriter, err error, defStatus int, defCode string) {
	var pr *peerRejectError
	code := ""
	switch {
	case errors.Is(err, errDraining):
		code = api.CodeDraining
	case errors.Is(err, errAdmissionFull):
		code = api.CodeAdmissionFull
	case errors.As(err, &pr):
		code = pr.code
	}
	switch code {
	case api.CodeDraining:
		writeRetryErr(w, http.StatusServiceUnavailable, api.CodeDraining, retryAfterDraining, "%v", err)
	case api.CodeAdmissionFull:
		writeRetryErr(w, http.StatusTooManyRequests, api.CodeAdmissionFull, retryAfterAdmission, "%v", err)
	default:
		writeErr(w, defStatus, defCode, "%v", err)
	}
}

// decodeBody decodes a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleCreate is POST /v1/sessions at the initiator daemon: validate
// the spec, admit locally, fan the (criterion-scrubbed) announcement
// out to every participant daemon, and start the initiator runner once
// all of them acked admission.
func (d *Daemon) handleCreate(w http.ResponseWriter, r *http.Request) {
	if d.cfg.Me != 0 {
		writeErr(w, http.StatusMisdirectedRequest, api.CodeWrongRole,
			"sessions are created at the initiator daemon (mesh slot 0); this is daemon %d", d.cfg.Me)
		return
	}
	var spec api.SessionSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "decoding session spec: %v", err)
		return
	}
	params, q, timeout, err := d.resolveSpec(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if len(spec.Criterion.Values) != q.M() || len(spec.Criterion.Weights) != q.M() {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest,
			"criterion needs %d values and %d weights, got %d and %d",
			q.M(), q.M(), len(spec.Criterion.Values), len(spec.Criterion.Weights))
		return
	}
	// An already-bound idempotency key means a retried POST: answer
	// with the session it created the first time, creating nothing.
	if spec.IdempotencyKey != "" {
		if prior := d.lookupKey(spec.IdempotencyKey); prior != nil {
			writeJSON(w, http.StatusOK, prior.info(len(d.cfg.Addrs)))
			return
		}
	}
	id, err := newSessionID()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, api.CodeBadRequest, "%v", err)
		return
	}
	s := &session{
		id:      id,
		spec:    spec,
		params:  params,
		q:       q,
		timeout: timeout,
		created: time.Now(),
		state:   api.StatePending,
	}
	if err := d.register(s); err != nil {
		writeAdmissionErr(w, err, http.StatusTooManyRequests, api.CodeAdmissionFull)
		return
	}
	if err := d.announceSession(r.Context(), s); err != nil {
		d.terminate(s, err)
		writeAdmissionErr(w, err, http.StatusBadGateway, api.CodePeerRejected)
		return
	}
	// Durably admit before the runner starts: a crash after this line
	// re-adopts and resumes the session, a crash before it loses a
	// session no client was ever told about.
	if d.store != nil {
		if err := d.store.logOpen(s.id, s.spec, s.created); err != nil {
			d.broadcastAbort(s.id, err)
			d.terminate(s, err)
			writeErr(w, http.StatusInternalServerError, api.CodeBadRequest, "%v", err)
			return
		}
	}
	s.mu.Lock()
	if api.Terminal(s.state) {
		state := s.state
		reason := s.abortReason
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, api.CodeConflict, "session %s already %s: %s", id, state, reason)
		return
	}
	s.started = true
	s.state = api.StateEstablishing
	s.mu.Unlock()
	d.spawn(s)
	writeJSON(w, http.StatusCreated, s.info(len(d.cfg.Addrs)))
}

// handleSubmit is POST /v1/sessions/{id}/submit at a participant
// daemon: store this participant's private profile and start its
// runner. A profile never crosses the mesh — it enters the protocol
// only through this daemon's own role execution.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if d.cfg.Me == 0 {
		writeErr(w, http.StatusMisdirectedRequest, api.CodeWrongRole,
			"the initiator daemon takes no profile submissions; submit to participant daemon %s's own endpoint", r.PathValue("id"))
		return
	}
	s := d.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, api.CodeNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	var profile workload.Profile
	if err := decodeBody(w, r, &profile); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "decoding submission: %v", err)
		return
	}
	if len(profile.Values) != s.q.M() {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest,
			"profile needs %d values, got %d", s.q.M(), len(profile.Values))
		return
	}
	draining := d.Draining() // before s.mu: lock order is d.mu -> s.mu
	s.mu.Lock()
	if api.Terminal(s.state) {
		state, reason := s.state, s.abortReason
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, api.CodeConflict, "session %s already %s: %s", s.id, state, reason)
		return
	}
	if s.started {
		// A byte-identical resubmission is a client retry, not a
		// conflict: acknowledge it again (idempotent submit).
		same := slices.Equal(s.profile.Values, profile.Values)
		s.mu.Unlock()
		if same {
			writeJSON(w, http.StatusAccepted, s.info(len(d.cfg.Addrs)))
			return
		}
		writeErr(w, http.StatusConflict, api.CodeConflict, "session %s already has this participant's profile", s.id)
		return
	}
	// A draining daemon starts no new runners; the announced session
	// stays pending in the table and takes the profile after restart.
	if draining {
		s.mu.Unlock()
		writeRetryErr(w, http.StatusServiceUnavailable, api.CodeDraining, retryAfterDraining,
			"service: daemon %d is draining and starts no new session runners", d.cfg.Me)
		return
	}
	s.profile = profile
	s.started = true
	s.state = api.StateEstablishing
	s.mu.Unlock()
	// Durable mode: the profile must survive a crash before the runner
	// depends on it — a restarted daemon cannot re-ask the client.
	if d.store != nil {
		if err := d.store.logSubmit(s.id, profile.Values); err != nil {
			s.mu.Lock()
			s.profile = workload.Profile{}
			s.started = false
			s.state = api.StatePending
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, api.CodeBadRequest, "%v", err)
			return
		}
	}
	d.spawn(s)
	writeJSON(w, http.StatusAccepted, s.info(len(d.cfg.Addrs)))
}

// handleResult is GET /v1/sessions/{id}/result: the poll half of the
// submit/poll contract. Non-terminal sessions answer with just the
// state; terminal ones with the full outcome until the TTL purges
// them.
func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	s := d.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, api.CodeNotFound,
			"unknown session %q (finished sessions are purged after %v)", r.PathValue("id"), d.cfg.ResultTTL)
		return
	}
	s.mu.Lock()
	res := api.ResultResponse{ID: s.id, State: s.state}
	if s.result != nil {
		res = *s.result
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, &res)
}

// handleInfo is GET /v1/sessions/{id}.
func (d *Daemon) handleInfo(w http.ResponseWriter, r *http.Request) {
	s := d.lookup(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, api.CodeNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.info(len(d.cfg.Addrs)))
}

// handleList is GET /v1/sessions: every hosted session, oldest first.
func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	all := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		all = append(all, s)
	}
	d.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if !all[i].created.Equal(all[j].created) {
			return all[i].created.Before(all[j].created)
		}
		return all[i].id < all[j].id
	})
	infos := make([]api.SessionInfo, len(all))
	for i, s := range all {
		infos[i] = s.info(len(d.cfg.Addrs))
	}
	writeJSON(w, http.StatusOK, infos)
}
