// Package groupranking is a from-scratch Go implementation of the
// privacy-preserving group-ranking framework of Li, Zhao, Xue and Silva
// (IEEE ICDCS 2012): an initiator and n participants jointly rank the
// participants by a private gain function without revealing private
// vectors or gain values, and — when at least two participants are
// honest — without letting up to n−2 colluders link a gain to its
// owner's identity.
//
// The package exposes three layers:
//
//   - Rank: the complete three-phase framework (secure gain computation
//     via a masked two-party dot product, identity-unlinkable multiparty
//     comparison over exponent ElGamal, top-k ranking submission with
//     over-claim detection).
//   - UnlinkableSort: the paper's core contribution as a standalone
//     primitive — n parties each hold one value and each learns only its
//     own rank.
//   - The secret-sharing baseline (Batcher sorting network over
//     Shamir-shared comparisons) selectable via Options.Sorter, used by
//     the paper's evaluation as the comparison point.
//
// All parties run as goroutines over an instrumented in-memory secure
// channel fabric; Result carries the transport statistics the
// benchmarks and the network simulation build on. The implementation is
// honest-but-curious and not hardened against side channels; see
// README.md.
package groupranking

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/telemetry"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// Observer is the protocol observability registry: it collects
// phase-scoped spans per party (wall time plus crypto and communication
// counters) while a run is in flight. Create one with NewObserver, pass
// it via Options.Observer or SortOptions.Observer, and export with
// WriteJSONL (one span per line), WriteSummary (per-phase table) or
// Spans. A nil Observer disables observability at zero cost.
type Observer = obsv.Registry

// NewObserver creates an empty observability registry.
func NewObserver() *Observer { return obsv.NewRegistry() }

// Telemetry is the runtime metrics registry: streaming counters,
// gauges and latency histograms covering what the runtime under the
// protocol does — transport traffic and round cadence, link redials
// and retransmissions, heartbeat RTTs, journal durability latency.
// Create one with NewTelemetry, pass it via Options.Telemetry, and
// serve it live over HTTP with telemetry.AdminMux (the rankparty
// -admin flag does both). A nil Telemetry disables collection at zero
// cost, and enabling it never adds protocol messages or bytes.
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty runtime metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// Attribute kinds (Section III-A of the paper).
const (
	// EqualTo attributes score best near the criterion value.
	EqualTo = workload.EqualTo
	// GreaterThan attributes score best above the criterion value.
	GreaterThan = workload.GreaterThan
)

// Attribute names one questionnaire dimension.
type Attribute = workload.Attribute

// Questionnaire is the published attribute-name vector: equal-to
// attributes first, then greater-than attributes.
type Questionnaire = workload.Questionnaire

// Criterion is the initiator's private criterion and weight vectors.
type Criterion = workload.Criterion

// Profile is one participant's private information vector.
type Profile = workload.Profile

// Submission is a top-k participant's disclosure to the initiator.
type Submission = core.Submission

// NewQuestionnaire validates attribute ordering and builds a
// questionnaire.
func NewQuestionnaire(attrs []Attribute) (*Questionnaire, error) {
	return workload.NewQuestionnaire(attrs)
}

// Sorter selects the phase-2 ranking protocol.
type Sorter = core.Sorter

// Sorter values.
const (
	// Unlinkable is the paper's identity-unlinkable sorting protocol
	// (default).
	Unlinkable = core.SorterUnlinkable
	// SecretSharing is the Jónsson-style baseline used for comparison.
	SecretSharing = core.SorterSecretSharing
)

// Options tunes a framework run. The zero value gives the paper's
// defaults: secp160r1, d1=15, d2=10, h=15, k=3, the unlinkable sorter
// and fresh random seeds.
type Options struct {
	// GroupName picks the DDH group: one of modp-1024, modp-2048,
	// modp-3072, secp160r1, secp224r1, secp256r1. Default secp160r1.
	GroupName string
	// K is the top-k cut (default 3, capped at n).
	K int
	// D1, D2, H are the attribute/weight/mask bit widths
	// (defaults 15/10/15).
	D1, D2, H int
	// Sorter selects the phase-2 protocol (default Unlinkable).
	Sorter Sorter
	// Seed makes the run deterministic; empty draws a fresh random seed.
	Seed string
	// ProveDecryption enables the decryption-integrity extension: every
	// chain hop commits to its output and proves each key-layer strip
	// with a Chaum–Pedersen transcript, verified by the next hop. It
	// roughly quintuples comparison-phase traffic and catches wrong-key
	// decryption, a step beyond the paper's honest-but-curious model.
	ProveDecryption bool
	// WireCodec overrides the wire-codec version this party announces in
	// session establishment (0 = the build's own version). It exists to
	// TEST the cross-version refusal path — two parties announcing
	// different codec versions abort the handshake with a named
	// mismatch; it does not change how frames are encoded.
	WireCodec int

	// Runtime holds Timeout and Workers, the execution knobs shared
	// with SortOptions and the rankd service config. The fields are
	// embedded: Options{Runtime: Runtime{Timeout: time.Minute}} sets
	// what opts.Timeout reads.
	Runtime
	// Recovery, when non-nil, enables the crash-recovery runtime for the
	// distributed framework parties (RankInitiatorParty /
	// RankParticipantParty): the party journals the session durably,
	// rides out peer disconnects by reconnecting, and — restarted with
	// the same flags and journal directory — resumes an in-flight
	// session instead of forcing a full abort. Nil (the default) keeps
	// the fail-fast transport; Rank refuses it.
	Recovery *RecoveryOptions
	// Faults, when non-nil, injects deterministic message faults (drops,
	// duplicates, reorders, corruption, link severs, party crashes) into
	// the run for robustness testing. See FaultPlan.
	Faults *FaultPlan
	// Observer, when non-nil, records per-party phase spans and crypto/
	// communication counters for the run (party 0 is the initiator,
	// parties 1..n the participants). On abort the partially filled
	// Observer still holds every span up to the failure.
	Observer *Observer
	// Telemetry, when non-nil, streams runtime health metrics (transport
	// round cadence, redials, retransmissions, heartbeat RTT, journal
	// latency) into a registry that can be scraped live while the run is
	// in flight. Only the distributed party entry points feed it; the
	// in-process Rank has no runtime underneath to measure and refuses
	// it.
	Telemetry *Telemetry
}

// RecoveryOptions configures the crash-recovery runtime of a
// distributed party. With recovery enabled the party appends every
// pinned parameter, its resolved seed, and every protocol message it
// sends or receives to an append-only checksummed journal in Dir; a
// crashed process restarted with the same flags replays its
// deterministic computation against that journal and rejoins the live
// session at the first un-journaled message. Peers meanwhile serve
// undelivered traffic from their journals, redial with backoff, tell
// slow from dead by 250 ms link heartbeats, and only abort with blame
// once a disconnected party has overstayed Grace (and always by
// Options.Timeout).
type RecoveryOptions struct {
	// Dir is the journal directory (required). Each party of each
	// session writes one file, named after the session fingerprint and
	// party index; restarting with the same Dir and flags resumes it.
	Dir string
	// Grace is how long a disconnected peer may take to reconnect
	// before survivors blame it and abort (default 15s). Options.Timeout
	// still bounds every receive regardless.
	Grace time.Duration
}

// FaultPlan describes a deterministic fault-injection schedule; see
// transport.FaultPlan for field semantics. Runs with a fault plan end
// either in a correct ranking or a clean typed *transport.AbortError —
// never a wrong ranking and never a hang.
type FaultPlan = transport.FaultPlan

// FaultRule targets one fault at specific rounds and links.
type FaultRule = transport.FaultRule

// CrashAt builds the fault rule that crashes a party at a given round
// (party 0 is the initiator; participants are 1..n).
func CrashAt(party, round int) FaultRule {
	return transport.CrashAt(party, round)
}

// AbortError is the typed failure every aborted run surfaces: the first
// failing party, protocol phase and round. Test with transport.IsAbort
// or errors.As.
type AbortError = transport.AbortError

// ErrSessionMismatch is the abort cause the distributed entry points
// surface when the pre-crypto session handshake finds the parties
// configured with incompatible parameters (different group, bit widths,
// k, sorter, ...). Match with errors.Is on the returned *AbortError.
var ErrSessionMismatch = core.ErrSessionMismatch

// Result is the outcome of a framework run as seen by the simulation
// harness (which plays every role and may therefore report all ranks).
type Result struct {
	// Ranks holds each participant's rank, 1 = best; ties share a rank.
	Ranks []int
	// Submissions are the top-k disclosures the initiator received, in
	// rank order, with the initiator's recomputed gains.
	Submissions []Submission
	// Suspicious lists participants whose claimed rank contradicts the
	// recomputed gain (over-claim detection).
	Suspicious []int
	// BytesOnWire is the total traffic across all parties.
	BytesOnWire int64
	// Rounds is the number of distinct communication rounds used.
	Rounds int
}

// Rank executes the full privacy-preserving group-ranking framework
// in-process: the initiator holds the criterion, each participant one
// profile. It returns every participant's rank and the initiator's view
// of the top-k submissions.
//
// The run aborts cleanly when ctx is done; callers with no cancellation
// needs pass context.Background(). Options.Timeout, when set, composes
// with ctx — whichever deadline expires first wins.
func Rank(ctx context.Context, q *Questionnaire, criterion Criterion, profiles []Profile, opts Options) (*Result, error) {
	// The in-process run has no journal and no runtime underneath to
	// measure: a knob it would ignore is refused rather than silently
	// dropped.
	switch {
	case opts.Recovery != nil:
		return nil, fmt.Errorf("groupranking: Recovery applies to the framework's party entry points only, not to Rank")
	case opts.Telemetry != nil:
		return nil, fmt.Errorf("groupranking: Telemetry applies to the framework's party entry points only, not to Rank")
	}
	params, err := opts.params(q, len(profiles))
	if err != nil {
		return nil, err
	}
	seed, err := fixedbig.DrawSeed(opts.Seed)
	if err != nil {
		return nil, err
	}
	ctx = obsv.WithRegistry(ctx, opts.Observer)
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	var wrap func(transport.Net) transport.Net
	if opts.Faults != nil {
		plan := *opts.Faults
		wrap = func(n transport.Net) transport.Net {
			return transport.NewFaultNet(n, plan)
		}
	}
	res, fab, err := core.RunCtx(ctx, params, core.Inputs{
		Questionnaire: q,
		Criterion:     criterion,
		Profiles:      profiles,
	}, seed, wrap)
	if err != nil {
		return nil, err
	}
	stats := fab.Stats()
	return &Result{
		Ranks:       res.Ranks,
		Submissions: res.Submissions,
		Suspicious:  res.Suspicious,
		BytesOnWire: stats.TotalBytes(),
		Rounds:      stats.DistinctRounds,
	}, nil
}

// ExpectedRanks computes the ground-truth ranking from plaintext gains.
// It exists for tests and examples; no party of a real deployment can
// evaluate it.
func ExpectedRanks(q *Questionnaire, criterion Criterion, profiles []Profile) ([]int, error) {
	return core.ExpectedRanks(q, criterion, profiles)
}

// Gain evaluates Definition 1 for one participant (plaintext helper).
func Gain(q *Questionnaire, criterion Criterion, profile Profile) (*big.Int, error) {
	return q.Gain(criterion, profile)
}
