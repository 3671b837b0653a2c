// Package core assembles the paper's privacy-preserving group-ranking
// framework (Fig. 1): an initiator P₀ and n participants P₁..P_n run
//
//  1. secure gain computation — each participant obtains its masked
//     partial gain β_j = ρ·p_j + ρ_j through the secure two-party
//     dot-product protocol with the initiator;
//  2. unlinkable gain comparison — the participants rank the β values
//     with the identity-unlinkable multiparty sorting protocol (or, for
//     the paper's baseline comparison, the secret-sharing sorting
//     network);
//  3. ranking submission — participants ranked in the top k submit their
//     information vectors; the initiator recomputes their gains and
//     flags inconsistent rank claims (the paper's over-claim defence).
//
// Each role is a state machine over any transport.Net (runInitiator,
// runParticipant), reached only through RunParty, the one runner above
// them: the deployment entry points and rankd call it once per party
// over a TCP mesh, with the establishSession parameter handshake first,
// while the RunCtx harness calls it once per goroutine over one shared
// in-memory fabric, so the recorded trace covers the whole framework
// and can be replayed over the simulated network of Fig. 3(b).
package core

import (
	"cmp"
	"fmt"
	"math/big"
	"sync"
	"time"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
	"groupranking/internal/workload"
)

// Sorter selects the phase-2 protocol.
type Sorter int

const (
	// SorterUnlinkable is the paper's contribution (default).
	SorterUnlinkable Sorter = iota
	// SorterSecretSharing is the Jónsson-style baseline: Batcher network
	// over the SS comparison, sorted multiset opened to all participants.
	SorterSecretSharing
)

// String implements fmt.Stringer.
func (s Sorter) String() string {
	switch s {
	case SorterUnlinkable:
		return "unlinkable"
	case SorterSecretSharing:
		return "secret-sharing"
	default:
		return fmt.Sprintf("Sorter(%d)", int(s))
	}
}

// ParseSorter is String's inverse, the one parser of a sorter name for
// the command line and the rankd API alike; the empty name means
// SorterUnlinkable.
func ParseSorter(name string) (Sorter, error) {
	if name == "" {
		return SorterUnlinkable, nil
	}
	for _, s := range []Sorter{SorterUnlinkable, SorterSecretSharing} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown sorter %q (want %s or %s)", name, SorterUnlinkable, SorterSecretSharing)
}

// Params fixes a framework instance. The defaults mirror Section VII:
// n=25, m=10, d1=15, h=15 (d2 is not stated in the paper; we use 10).
type Params struct {
	N  int // participants (excluding the initiator)
	M  int // attribute dimension
	T  int // number of "equal to" attributes (first T of M)
	D1 int // attribute value bits
	D2 int // weight bits
	H  int // bits of the masking factor ρ
	K  int // top-k cut

	// Group is the DDH group for the unlinkable comparison phase.
	Group group.Group
	// Sorter selects the phase-2 protocol.
	Sorter Sorter
	// SkipProofs disables the key-knowledge proofs in phase 2. No
	// entry point sets it; the chaos suites (internal/chaos) do, to
	// keep hundreds of fault schedules fast.
	SkipProofs bool
	// ProveDecryption enables the decryption-integrity extension of the
	// phase-2 chain: hash commitments plus Chaum–Pedersen strip proofs,
	// verified hop by hop (see internal/unlinksort).
	ProveDecryption bool
	// Workers bounds the goroutines each party's crypto hot loops fan
	// out on (0 = NumCPU, 1 = serial). Results are bit-identical at
	// every worker count: randomness is always drawn serially.
	Workers int
}

// The defaults every tier applies to a setting its caller leaves zero:
// Rank, the distributed parties and rankd all resolve through
// Params.WithDefaults, GroupByName and DefaultTimeout, so a default is
// written here and nowhere else.
const (
	DefaultK         = 3 // capped at n
	DefaultD1        = 15
	DefaultD2        = 10
	DefaultH         = 15
	DefaultGroupName = "secp160r1"
	// DefaultTimeout bounds a distributed party or a rankd session (and
	// each blocking receive on its mesh): a dead peer must surface as a
	// typed abort, never a hang.
	DefaultTimeout = 2 * time.Minute
)

// WithDefaults fills every zero protocol setting with its default and
// caps K at N.
func (p Params) WithDefaults() Params {
	p.K = min(cmp.Or(p.K, DefaultK), p.N)
	p.D1 = cmp.Or(p.D1, DefaultD1)
	p.D2 = cmp.Or(p.D2, DefaultD2)
	p.H = cmp.Or(p.H, DefaultH)
	return p
}

// GroupByName looks up the DDH group a caller names; the empty name
// means DefaultGroupName.
func GroupByName(name string) (group.Group, error) {
	return group.ByName(cmp.Or(name, DefaultGroupName))
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("core: need at least two participants, got %d", p.N)
	case p.M < 1:
		return fmt.Errorf("core: need at least one attribute, got %d", p.M)
	case p.T < 0 || p.T > p.M:
		return fmt.Errorf("core: t=%d outside [0, %d]", p.T, p.M)
	case p.D1 < 1 || p.D1 > 30:
		return fmt.Errorf("core: d1=%d outside [1, 30]", p.D1)
	case p.D2 < 1 || p.D2 > 30:
		return fmt.Errorf("core: d2=%d outside [1, 30]", p.D2)
	case p.H < 1 || p.H > 62:
		return fmt.Errorf("core: h=%d outside [1, 62]", p.H)
	case p.K < 1 || p.K > p.N:
		return fmt.Errorf("core: k=%d outside [1, n=%d]", p.K, p.N)
	case p.Group == nil:
		return fmt.Errorf("core: missing group")
	case p.Sorter == SorterSecretSharing:
		// The sort's field must carry every comparison among n parties:
		// refused here, before any round, rather than at the first one.
		prime, err := p.ssFieldPrime()
		if err != nil {
			return err
		}
		if err := ssmpc.CheckWidth(p.N, prime, p.BetaBits()); err != nil {
			return fmt.Errorf("core: a %d-bit secret-sharing field for %d-bit gains: %w", prime.BitLen(), p.BetaBits(), err)
		}
	}
	return nil
}

// BetaBits returns the bit width l of the masked partial gains.
func (p Params) BetaBits() int {
	return workload.BetaBits(p.M, p.D1, p.D2, p.H)
}

// fieldPrime derives the phase-1 dot-product field deterministically
// from the required width, so all parties agree without negotiation.
func (p Params) fieldPrime() (*big.Int, error) {
	return derivedPrime("dot", p.BetaBits()+33)
}

// ssFieldPrime derives the SS baseline's field the same way.
func (p Params) ssFieldPrime() (*big.Int, error) {
	return derivedPrime("ss", p.BetaBits()+ssmpc.Kappa+8)
}

var (
	primesMu sync.Mutex
	primes   = map[string]*big.Int{} // "<kind>-<bits>" → prime; read-only once stored
)

// derivedPrime returns the DRBG-drawn prime of the given kind ("dot" or
// "ss") and width. It is a pure function of its arguments, and the draw
// costs dozens of primality tests, so each prime is derived once per
// process; callers share the *big.Int and must not modify it.
func derivedPrime(kind string, bits int) (*big.Int, error) {
	key := fmt.Sprintf("%s-field-%d", kind, bits)
	primesMu.Lock()
	defer primesMu.Unlock()
	if prime, ok := primes[key]; ok {
		return prime, nil
	}
	prime, err := fixedbig.Prime(fixedbig.NewDRBG("groupranking-"+key), bits)
	if err != nil {
		return nil, fmt.Errorf("core: deriving %s field: %w", kind, err)
	}
	primes[key] = prime
	return prime, nil
}

// Round tags for the shared trace.
const (
	// The distributed session-establishment handshake runs below every
	// protocol round (the in-process harness skips it).
	roundSession     = 0
	roundGainRequest = 1 // participant → initiator: dot-product flow 1
	roundGainReply   = 2 // initiator → participant: dot-product flow 2
	// Phase 2 runs in a SubView with this offset.
	phase2RoundOffset = 10
	// Phase 3 submissions use a tag above any phase-2 round.
	roundSubmission = 1 << 20
)

// schedule is the framework's own rounds for one run; the sorter's run
// between gain and submission. A top-k participant sends the submit
// row, any other the decline row, whose senders are the first k and the
// rest: the order of a run whose ranks follow the participant index.
type schedule struct {
	gainRequest, gainReply, submit, decline transport.Round
}

// newSchedule builds the schedule under p, with fieldBytes the
// dot-product field's element size: the flow is s rows and two vectors
// of d = m + t + 1 entries, the reply two entries, a submission its
// rank and profile at 8 bytes each, a decline one byte.
func newSchedule(p Params, fieldBytes int) schedule {
	all, initiator := [2]int{1, p.N + 1}, [2]int{0, 1}
	d := p.M + p.T + 1
	return schedule{
		gainRequest: transport.Round{Tag: roundGainRequest, Phase: PhaseGain, Pattern: transport.PointToPoint,
			From: all, To: initiator, Bytes: 2 * d * fieldBytes, PerS: d * fieldBytes},
		gainReply: transport.Round{Tag: roundGainReply, Phase: PhaseGain, Pattern: transport.PointToPoint,
			From: initiator, To: all, Bytes: 2 * fieldBytes},
		submit: transport.Round{Tag: roundSubmission, Phase: PhaseSubmission, Pattern: transport.PointToPoint,
			From: [2]int{1, p.K + 1}, To: initiator, Bytes: 8 * (1 + p.M)},
		decline: transport.Round{Tag: roundSubmission, Phase: PhaseSubmission, Pattern: transport.PointToPoint,
			From: [2]int{p.K + 1, p.N + 1}, To: initiator, Bytes: 1},
	}
}

// sessionRound is the session round a distributed run opens with: every
// party's announcement to every other, its size nominal.
func sessionRound(p Params) transport.Round {
	every := [2]int{0, p.N + 1}
	return transport.Round{Tag: roundSession, Phase: PhaseSession, Pattern: transport.EchoBroadcast,
		From: every, To: every, Bytes: 64 + len(p.Group.Name())}
}

// Schedule is the framework's rounds as the in-process harness runs
// them: gain, the unlinkable sorter's rounds placed among participants
// 1..n at phase2RoundOffset (as a run's SubView places them), and
// submission; a distributed run opens with the session round. l and the
// dot-product field's element size are given, so that a cost model can
// price the paper's settings.
func Schedule(p Params, l, fieldBytes int) []transport.Round {
	s := newSchedule(p, fieldBytes)
	rows := []transport.Round{s.gainRequest, s.gainReply}
	for _, r := range unlinksort.Schedule(p.sortConfig(l), p.N) {
		r.Tag += phase2RoundOffset
		r.From = [2]int{r.From[0] + 1, r.From[1] + 1}
		r.To = [2]int{r.To[0] + 1, r.To[1] + 1}
		rows = append(rows, r)
	}
	return append(rows, s.submit, s.decline)
}

// sortConfig is the unlinkable sorter's configuration under p for
// l-bit values.
func (p Params) sortConfig(l int) unlinksort.Config {
	return unlinksort.Config{Group: p.Group, L: l, SkipProofs: p.SkipProofs, ProveDecryption: p.ProveDecryption, Workers: p.Workers}
}

// Span names of the framework's own phases. Phase 2 spans come from
// the sorting subprotocol (unlinksort.Phases, or PhaseSSSort for the
// secret-sharing baseline). PhaseSession appears only in distributed
// runs (the in-process harness skips the handshake).
const (
	PhaseSession    = "session"
	PhaseGain       = "gain"
	PhaseSSSort     = "ssmpc"
	PhaseSubmission = "submission"
)

// Phases lists the framework-level span names every in-process run
// records (the guard test checks them against a real trace).
var Phases = []string{PhaseGain, PhaseSubmission}

// Submission is what a top-k participant hands to the initiator.
type Submission struct {
	// Participant is the participant index (0-based within 0..n−1).
	Participant int
	// ClaimedRank is the rank the participant reported.
	ClaimedRank int
	// Profile is the submitted information vector.
	Profile workload.Profile
	// Gain is the initiator's recomputation from the submitted profile
	// (Definition 1).
	Gain *big.Int
}

// Result is the framework outcome as observed by the simulation harness.
type Result struct {
	// Ranks holds each participant's self-computed rank (1 = best).
	Ranks []int
	// Submissions are the top-k submissions in claimed-rank order.
	Submissions []Submission
	// Suspicious lists participants whose claimed rank is inconsistent
	// with the gain the initiator recomputed from their submission.
	Suspicious []int
	// Betas exposes the masked partial gains for analysis and testing
	// (a real deployment never pools them; the harness may).
	Betas []*big.Int
}

// submissionMsg is the phase-3 wire format (the type stays
// package-private; wire.go registers its codec).
type submissionMsg struct {
	Declined bool
	Rank     int
	Values   []int64
}

// validate is the receive-boundary check the initiator applies to every
// submission before touching its contents: over a real network a peer
// can send anything, so the claimed rank must be a possible rank, the
// profile must have the questionnaire's dimension, and every value must
// fit the d1-bit attribute width all profiles are bound to.
func (m submissionMsg) validate(p Params) error {
	if m.Declined {
		return nil
	}
	if m.Rank < 1 || m.Rank > p.N {
		return fmt.Errorf("core: claimed rank %d outside [1, %d]", m.Rank, p.N)
	}
	if len(m.Values) != p.M {
		return fmt.Errorf("core: submitted profile has %d values, questionnaire has %d attributes", len(m.Values), p.M)
	}
	bound := int64(1) << uint(p.D1)
	for i, v := range m.Values {
		if v < 0 || v >= bound {
			return fmt.Errorf("core: submitted value %d at attribute %d outside [0, 2^%d)", v, i, p.D1)
		}
	}
	return nil
}

// ExpectedRanks computes the ground-truth descending ranks from the
// plaintext gains (test and example helper; a deployment cannot do
// this).
func ExpectedRanks(q *workload.Questionnaire, crit workload.Criterion, profiles []workload.Profile) ([]int, error) {
	gains := make([]*big.Int, len(profiles))
	for i, p := range profiles {
		g, err := q.Gain(crit, p)
		if err != nil {
			return nil, err
		}
		gains[i] = g
	}
	ranks := make([]int, len(profiles))
	for i := range gains {
		rank := 1
		for j := range gains {
			if gains[j].Cmp(gains[i]) > 0 {
				rank++
			}
		}
		ranks[i] = rank
	}
	return ranks, nil
}
