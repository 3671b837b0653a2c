package core

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/dotprod"
	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/ssmpc"
	"groupranking/internal/sssort"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
	"groupranking/internal/workload"
)

// ParticipantOutput is what runParticipant reports to the harness.
type ParticipantOutput struct {
	// Rank is the participant's self-computed rank (1 = best).
	Rank int
	// Beta is the masked partial gain (unsigned l-bit form).
	Beta *big.Int
}

// runParticipant executes participant j's side (fabric index j with
// 1 ≤ j ≤ n; index 0 is the initiator), with cancellation threaded
// through every phase, including the phase-2 sorting subprotocol.
func runParticipant(ctx context.Context, params Params, j int, q *workload.Questionnaire, profile workload.Profile, fab transport.Net, rng io.Reader) (ParticipantOutput, error) {
	var out ParticipantOutput
	if err := params.Validate(); err != nil {
		return out, err
	}
	if j < 1 || j > params.N {
		return out, fmt.Errorf("core: participant index %d outside [1, %d]", j, params.N)
	}
	// Observability: core's own sends go through the wrapped handle
	// ofab; the phase-2 SubView below is built over the RAW fabric
	// because the sorting subprotocols install their own counting
	// wrapper at the leaf (see obsv.ObservedNet).
	obs := obsv.PartyFrom(ctx)
	ofab := obsv.ObservedNet(fab, obs)
	defer obs.End()
	prime, err := params.fieldPrime()
	if err != nil {
		return out, err
	}
	dp := dotprod.Params{P: prime, Obs: obs, Workers: params.Workers}
	l := params.BetaBits()
	sched := newSchedule(params, dp.FieldBytes())

	// Phase 1: dot product with the initiator, recover β.
	obs.Begin(PhaseGain)
	wPrime, err := q.ParticipantVector(profile)
	if err != nil {
		return out, err
	}
	bob, flow, err := dotprod.NewBob(dp, wPrime, rng)
	if err != nil {
		return out, err
	}
	if err := ofab.Send(sched.gainRequest.Tag, j, 0, sched.gainRequest.Size(len(flow.QX)), flow); err != nil {
		return out, transport.AnnotatePhase(err, PhaseGain)
	}
	payload, err := ofab.RecvCtx(ctx, j, 0, sched.gainReply.Tag)
	if err != nil {
		return out, transport.AnnotatePhase(err, PhaseGain)
	}
	reply, ok := payload.(*dotprod.AliceReply)
	if !ok {
		return out, transport.Abort(0, sched.gainReply.Tag, PhaseGain,
			fmt.Errorf("core: initiator sent a malformed gain reply"))
	}
	betaField, err := bob.Finish(reply)
	if err != nil {
		return out, err
	}
	betaSigned := fixedbig.CentredMod(betaField, prime)
	betaU, err := fixedbig.ToUnsigned(betaSigned, l)
	if err != nil {
		return out, fmt.Errorf("core: masked gain exceeds the configured width: %w", err)
	}
	out.Beta = betaU

	// Phase 2 among the participants only.
	members := make([]int, params.N)
	for i := range members {
		members[i] = i + 1
	}
	sub, err := transport.NewSubView(fab, members, phase2RoundOffset)
	if err != nil {
		return out, err
	}
	switch params.Sorter {
	case SorterUnlinkable:
		res, err := unlinksort.PartyCtx(ctx, params.sortConfig(l), j-1, sub, betaU, rng)
		if err != nil {
			return out, err
		}
		out.Rank = res.Rank
	case SorterSecretSharing:
		rank, err := ssBaselineRank(ctx, params, j-1, sub, betaU, rng)
		if err != nil {
			return out, err
		}
		out.Rank = rank
	default:
		return out, fmt.Errorf("core: unknown sorter %v", params.Sorter)
	}

	// Phase 3: submit if ranked in the top k, decline otherwise.
	obs.Begin(PhaseSubmission)
	msg, row := submissionMsg{Declined: true}, sched.decline
	if out.Rank <= params.K {
		msg, row = submissionMsg{Rank: out.Rank, Values: append([]int64(nil), profile.Values...)}, sched.submit
	}
	if err := ofab.Send(row.Tag, j, 0, row.Bytes, msg); err != nil {
		return out, transport.AnnotatePhase(err, PhaseSubmission)
	}
	return out, nil
}

// ssBaselineRank runs the baseline phase 2: all β values are secret
// shared, sorted with the Batcher network, opened, and each participant
// locates her own β in the sorted sequence.
func ssBaselineRank(ctx context.Context, params Params, me int, net transport.Net, betaU *big.Int, rng io.Reader) (int, error) {
	obsv.PartyFrom(ctx).Begin(PhaseSSSort)
	prime, err := params.ssFieldPrime()
	if err != nil {
		return 0, err
	}
	cfg := ssmpc.Config{
		N:      params.N,
		Degree: (params.N - 1) / 2, // the baseline's maximum resistance
		P:      prime,
	}
	eng, err := ssmpc.NewEngineCtx(ctx, cfg, me, net, rng)
	if err != nil {
		return 0, err
	}
	shares := make([]ssmpc.Share, params.N)
	for dealer := 0; dealer < params.N; dealer++ {
		var secret *big.Int
		if dealer == me {
			secret = betaU
		}
		sh, err := eng.ShareBatch(dealer, []*big.Int{secret}, 1)
		if err != nil {
			return 0, err
		}
		shares[dealer] = sh[0]
	}
	opened, err := sssort.SortOpen(eng, shares, params.BetaBits())
	if err != nil {
		return 0, err
	}
	return sssort.RankDescending(opened, betaU), nil
}
