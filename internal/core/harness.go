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
// RunCtx is a thin harness over the per-role runners RunInitiatorCtx
// and RunParticipantCtx — the same state machines the distributed entry
// points run over a TCP mesh. It skips the session-establishment round
// (EstablishSessionCtx): all goroutines share one Params value by
// construction, and skipping keeps in-process message and operation
// counts identical to the pre-distributed framework.
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

	type initOut struct {
		subs    []Submission
		flagged []int
		err     error
	}
	reg := obsv.RegistryFrom(ctx)

	initCh := make(chan initOut, 1)
	go func() {
		pctx := obsv.WithParty(runCtx, reg.Party(0))
		obsv.Do(pctx, 0, func(ctx context.Context) {
			rng := fixedbig.NewDRBG(InitiatorSeed(seed))
			subs, flagged, err := RunInitiatorCtx(ctx, params, in.Questionnaire, in.Criterion, net, rng)
			if err != nil {
				cancel()
			}
			initCh <- initOut{subs: subs, flagged: flagged, err: err}
		})
	}()

	type partOut struct {
		j   int
		out ParticipantOutput
		err error
	}
	partCh := make(chan partOut, params.N)
	for j := 1; j <= params.N; j++ {
		j := j
		go func() {
			pctx := obsv.WithParty(runCtx, reg.Party(j))
			obsv.Do(pctx, j, func(ctx context.Context) {
				rng := fixedbig.NewDRBG(ParticipantSeed(seed, j))
				out, err := RunParticipantCtx(ctx, params, j, in.Questionnaire, in.Profiles[j-1], net, rng)
				if err != nil {
					cancel()
				}
				partCh <- partOut{j: j, out: out, err: err}
			})
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
			result.Ranks[po.j-1] = po.out.Rank
			result.Betas[po.j-1] = po.out.Beta
		}
	}
	io := <-initCh
	keep(io.err)
	if firstErr != nil {
		return nil, fab, transport.EnsureAbort(firstErr, -1, "framework")
	}
	result.Submissions = io.subs
	result.Suspicious = io.flagged
	return result, fab, nil
}

// InitiatorSeed derives the initiator's deterministic RNG label from a
// run seed. The distributed entry points use the same derivation, so a
// seed-fixed distributed run is transcript-identical to the in-process
// harness.
func InitiatorSeed(seed string) string { return seed + "-initiator" }

// ParticipantSeed derives participant j's deterministic RNG label
// (1 ≤ j ≤ n), matching the in-process harness exactly.
func ParticipantSeed(seed string, j int) string {
	return fmt.Sprintf("%s-participant-%d", seed, j)
}
