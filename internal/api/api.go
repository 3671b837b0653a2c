// Package api defines the JSON wire contract of the rankd
// ranking-as-a-service HTTP API: the session spec a client posts to the
// initiator daemon, the profile submission it posts to each participant
// daemon, and the poll-able result either side serves. The
// questionnaire, criterion and profile are internal/workload's own
// types, whose JSON this contract is. Both the root groupranking.Client
// and internal/service import this package, so neither has to import
// the other.
package api

import "groupranking/internal/workload"

// API paths. Session-scoped endpoints use Go 1.22 ServeMux patterns
// with an {id} segment; SubmitPath/ResultPath build the concrete URLs.
const (
	// PathSessions is the collection endpoint: POST creates a session
	// (initiator daemon only), GET lists the live and retained ones.
	PathSessions = "/v1/sessions"
)

// SessionPath returns the info URL for one session.
func SessionPath(id string) string { return PathSessions + "/" + id }

// SubmitPath returns the profile-submission URL for one session
// (participant daemons only); the body is one workload.Profile.
func SubmitPath(id string) string { return SessionPath(id) + "/submit" }

// ResultPath returns the poll URL for one session's outcome.
func ResultPath(id string) string { return SessionPath(id) + "/result" }

// Sorter names for SessionSpec.Sorter: core.Sorter's String spellings,
// the same names the command line, traces and the bench snapshot use.
const (
	// SorterUnlinkable is the paper's identity-unlinkable protocol
	// (default, also selected by an empty Sorter).
	SorterUnlinkable = "unlinkable"
	// SorterSecretSharing is the secret-sharing baseline.
	SorterSecretSharing = "secret-sharing"
)

// SessionSpec is the body of POST /v1/sessions: everything a ranking
// session needs beyond the participants' private profiles (each arrives
// at its participant's daemon separately, a workload.Profile posted to
// SubmitPath). Zero-value knobs take the framework defaults (k=3, d1=15,
// d2=10, h=15, secp160r1, unlinkable sorter).
type SessionSpec struct {
	// Attributes is the published questionnaire (eq attributes first).
	Attributes []workload.Attribute `json:"attributes"`
	// Criterion is the initiator's private input. It travels only from
	// the client to the initiator daemon; the control plane scrubs it
	// before announcing a session to participant daemons.
	Criterion workload.Criterion `json:"criterion"`
	// K is the top-k cut.
	K int `json:"k,omitempty"`
	// D1, D2, H are the attribute/weight/mask bit widths.
	D1 int `json:"d1,omitempty"`
	D2 int `json:"d2,omitempty"`
	H  int `json:"h,omitempty"`
	// GroupName picks the DDH group.
	GroupName string `json:"group,omitempty"`
	// Sorter picks the phase-2 protocol: SorterUnlinkable (the
	// default) or SorterSecretSharing.
	Sorter string `json:"sorter,omitempty"`
	// Seed makes the whole session deterministic: like the CLI party
	// runners, every daemon derives its per-role RNG from this one
	// value, so a seeded service run reproduces the in-process Rank
	// byte for byte — and every daemon of the mesh holds it, so a
	// seeded session's secrets are only as private as the seed. Empty
	// means each daemon draws its own seed, which never leaves it (a
	// durable daemon journals it in its own session journal).
	Seed string `json:"seed,omitempty"`
	// ProveDecryption enables the decryption-integrity extension.
	ProveDecryption bool `json:"prove_decryption,omitempty"`
	// TimeoutMS overrides the daemon's per-session timeout budget for
	// this session; 0 takes the daemon default. The daemon's configured
	// budget is a hard ceiling — a spec cannot ask for more.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey, when non-empty, makes creation idempotent: a
	// retried POST carrying a key the daemon has already bound returns
	// the existing session instead of creating a duplicate. Keys are
	// persisted with the durable session table, so the guarantee holds
	// across a daemon restart.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Session states. A session is created pending, moves to establishing
// once its runner joins the mesh handshake (for a participant daemon:
// once the profile arrives), to running when the handshake agrees, and
// ends done or aborted. Finished sessions are retained for the daemon's
// result TTL, then purged (result polls return 404).
const (
	StatePending      = "pending"
	StateEstablishing = "establishing"
	StateRunning      = "running"
	StateDone         = "done"
	StateAborted      = "aborted"
)

// Terminal reports whether a state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateAborted
}

// SessionInfo is the creation/submit/list response.
type SessionInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Parties is the mesh size (initiator + participants).
	Parties int `json:"parties"`
}

// Submission is one top-k disclosure as the initiator daemon reports it.
type Submission struct {
	// Participant is the 0-based participant index.
	Participant int `json:"participant"`
	// ClaimedRank is the rank the participant reported.
	ClaimedRank int `json:"claimed_rank"`
	// Values is the submitted information vector.
	Values []int64 `json:"values"`
	// Gain is the initiator's recomputed gain, in decimal (gains exceed
	// int64 at realistic bit widths).
	Gain string `json:"gain"`
}

// ResultResponse is the body of GET /v1/sessions/{id}/result. State is
// always set; the outcome fields are filled only once Terminal(State).
// The initiator daemon reports Submissions/Suspicious, a participant
// daemon reports its own Rank — each endpoint only ever learns (and
// serves) its own role's view.
type ResultResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error is the abort cause when State is "aborted".
	Error string `json:"error,omitempty"`
	// Submissions/Suspicious: initiator-daemon view.
	Submissions []Submission `json:"submissions,omitempty"`
	Suspicious  []int        `json:"suspicious,omitempty"`
	// Rank: participant-daemon view (1 = best; 0 until done).
	Rank int `json:"rank,omitempty"`
	// TraceID is the run-level trace identifier the session agreed on.
	TraceID string `json:"trace_id,omitempty"`
	// BytesOnWire counts the bytes this daemon sent for the session.
	BytesOnWire int64 `json:"bytes_on_wire,omitempty"`
	// Rounds is the number of distinct communication rounds.
	Rounds int `json:"rounds,omitempty"`
	// ElapsedMS is the session's wall time at this daemon.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// Error is the JSON error body every non-2xx response carries.
type Error struct {
	// Code is a stable machine-readable cause: "bad_request",
	// "not_found", "wrong_role", "conflict", "admission_full",
	// "peer_rejected", "draining".
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes. Responses carrying CodeAdmissionFull or CodeDraining
// also set a Retry-After header (seconds) — the client's retry helper
// honors it.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeWrongRole     = "wrong_role"
	CodeConflict      = "conflict"
	CodeAdmissionFull = "admission_full"
	CodePeerRejected  = "peer_rejected"
	// CodeDraining: the daemon is shutting down gracefully and admits
	// no new work; running sessions finish or are parked for restart.
	CodeDraining = "draining"
)
