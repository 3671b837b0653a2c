package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// Inputs bundles all private inputs for an in-process run.
type Inputs struct {
	Questionnaire *workload.Questionnaire
	Criterion     workload.Criterion
	Profiles      []workload.Profile
}

// Role is one party's seat in a run and its private input: the
// initiator (Me == 0) holds the criterion, participant Me (1 ≤ Me ≤ n)
// its own profile.
type Role struct {
	Me            int
	Questionnaire *workload.Questionnaire
	Criterion     workload.Criterion
	Profile       workload.Profile
}

// Outcome is what one party learns from a run.
type Outcome struct {
	// TraceID is the trace identifier the session round agreed on (empty
	// when the round was skipped).
	TraceID string
	// Submissions and Suspicious are the initiator's view.
	Submissions []Submission
	Suspicious  []int
	// Participant is a participant's own output.
	Participant ParticipantOutput
}

// RunParty is the one party runner under every tier: the in-process
// harness (RunCtx) runs it once per goroutine, a distributed party once
// per process and rankd once per hosted session. It attaches the
// party's handle from the context's observability registry and labels
// its profile samples, derives the role's DRBG from seed
// (InitiatorSeed or ParticipantSeed), runs the role over net and turns
// a role failure into a typed *transport.AbortError.
//
// With established nil the session-establishment round is skipped —
// the in-process harness's goroutines share one Params by construction,
// which keeps in-process message and operation counts unchanged.
// Otherwise EstablishSessionCtx runs first, proposing DeriveTraceID of
// seed, and established receives the agreed trace ID before the role
// starts.
//
// seed must already be resolved (explicit, journaled or drawn): with an
// empty one every party's DRBG would be keyed by a public constant, so
// it is refused.
func RunParty(ctx context.Context, params Params, role Role, seed string, net transport.Net, established func(traceID string)) (Outcome, error) {
	if seed == "" {
		return Outcome{}, fmt.Errorf("core: party %d has no seed to derive its randomness from", role.Me)
	}
	var out Outcome
	var err error
	ctx = obsv.WithParty(ctx, obsv.RegistryFrom(ctx).Party(role.Me))
	obsv.Do(ctx, role.Me, func(ctx context.Context) {
		if established != nil {
			if out.TraceID, err = EstablishSessionCtx(ctx, params, role.Me, net, DeriveTraceID(seed)); err != nil {
				return
			}
			established(out.TraceID)
		}
		if role.Me == 0 {
			rng := fixedbig.NewDRBG(InitiatorSeed(seed))
			out.Submissions, out.Suspicious, err = RunInitiatorCtx(ctx, params, role.Questionnaire, role.Criterion, net, rng)
		} else {
			rng := fixedbig.NewDRBG(ParticipantSeed(seed, role.Me))
			out.Participant, err = RunParticipantCtx(ctx, params, role.Me, role.Questionnaire, role.Profile, net, rng)
		}
		err = transport.EnsureAbort(err, -1, "framework")
	})
	return out, err
}

// RunCtx executes the whole framework in-process: the initiator and all
// participants as goroutines over one fabric. seed derives each party's
// deterministic randomness; pass distinct seeds for independent runs.
// The first party to fail cancels every sibling, so a crash or fault
// never leaves the run hanging: the returned error is always a typed
// *AbortError naming the first failing party, phase and round. wrap, if
// non-nil, decorates the fabric every party talks through (e.g. with a
// transport.FaultNet for chaos testing); the undecorated fabric is still
// returned for trace and stats inspection.
//
// RunCtx is a thin harness over RunParty — the runner the distributed
// entry points drive over a TCP mesh — without the
// session-establishment round.
func RunCtx(ctx context.Context, params Params, in Inputs, seed string, wrap func(transport.Net) transport.Net, opts ...transport.Option) (*Result, *transport.Fabric, error) {
	if err := params.Validate(); err != nil {
		return nil, nil, err
	}
	if in.Questionnaire == nil {
		return nil, nil, fmt.Errorf("core: missing questionnaire")
	}
	if len(in.Profiles) != params.N {
		return nil, nil, fmt.Errorf("core: %d profiles for %d participants", len(in.Profiles), params.N)
	}
	if in.Questionnaire.M() != params.M || in.Questionnaire.T() != params.T {
		return nil, nil, fmt.Errorf("core: questionnaire shape (m=%d, t=%d) disagrees with params (m=%d, t=%d)",
			in.Questionnaire.M(), in.Questionnaire.T(), params.M, params.T)
	}
	fab, err := transport.New(params.N+1, opts...)
	if err != nil {
		return nil, nil, err
	}
	var net transport.Net = fab
	if wrap != nil {
		net = wrap(fab)
	}
	// One failed party cancels its siblings so nobody blocks forever on a
	// message that will never arrive.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type partyOut struct {
		me  int
		out Outcome
		err error
	}
	initCh, partCh := make(chan partyOut, 1), make(chan partyOut, params.N)
	for me := 0; me <= params.N; me++ {
		role, ch := Role{Me: me, Questionnaire: in.Questionnaire}, partCh
		if me == 0 {
			role.Criterion, ch = in.Criterion, initCh
		} else {
			role.Profile = in.Profiles[me-1]
		}
		go func() {
			out, err := RunParty(runCtx, params, role, seed, net, nil)
			if err != nil {
				cancel()
			}
			ch <- partyOut{me: me, out: out, err: err}
		}()
	}

	result := &Result{
		Ranks: make([]int, params.N),
		Betas: make([]*big.Int, params.N),
	}
	// Prefer the root-cause error: cancellation aborts are secondary
	// effects of the first real failure.
	var firstErr error
	keep := func(err error) {
		if err == nil {
			return
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	for i := 0; i < params.N; i++ {
		po := <-partCh
		keep(po.err)
		if po.err == nil {
			result.Ranks[po.me-1] = po.out.Participant.Rank
			result.Betas[po.me-1] = po.out.Participant.Beta
		}
	}
	io := <-initCh
	keep(io.err)
	if firstErr != nil {
		return nil, fab, firstErr
	}
	result.Submissions = io.out.Submissions
	result.Suspicious = io.out.Suspicious
	return result, fab, nil
}

// InitiatorSeed derives the initiator's deterministic RNG label from a
// run seed; RunParty keys the initiator's DRBG with it on every tier,
// so a seed-fixed distributed run is transcript-identical to the
// in-process harness.
func InitiatorSeed(seed string) string { return seed + "-initiator" }

// ParticipantSeed derives participant j's deterministic RNG label
// (1 ≤ j ≤ n), the same on every tier.
func ParticipantSeed(seed string, j int) string {
	return fmt.Sprintf("%s-participant-%d", seed, j)
}
