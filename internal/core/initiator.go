package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sort"

	"groupranking/internal/dotprod"
	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// runInitiator executes the initiator's side over the fabric (party
// index 0 of n+1). It returns the received submissions and the flagged
// participants. Every blocking receive honours ctx, and failures surface
// as typed *AbortError values naming the peer, phase and round being
// waited on.
func runInitiator(ctx context.Context, params Params, q *workload.Questionnaire, crit workload.Criterion, fab transport.Net, rng io.Reader) ([]Submission, []int, error) {
	if err := params.Validate(); err != nil {
		return nil, nil, err
	}
	obs := obsv.PartyFrom(ctx)
	fab = obsv.ObservedNet(fab, obs)
	defer obs.End()
	prime, err := params.fieldPrime()
	if err != nil {
		return nil, nil, err
	}
	dp := dotprod.Params{P: prime, Obs: obs, Workers: params.Workers}
	sched := newSchedule(params, dp.FieldBytes())

	obs.Begin(PhaseGain)
	// Step 1: pick the h-bit masking factor ρ ≥ 1 (top bit set so every
	// ρ_j < ρ preserves the partial-gain order).
	rhoLow, err := fixedbig.RandBits(rng, params.H-1)
	if err != nil {
		return nil, nil, err
	}
	rho := new(big.Int).SetBit(rhoLow, params.H-1, 1)

	vPrime, err := q.InitiatorVector(crit, rho)
	if err != nil {
		return nil, nil, err
	}

	// Steps 3-4: answer each participant's dot-product flow with her own
	// random offset ρ_j, which the over-claim check needs again.
	rhoJs := make([]*big.Int, params.N)
	flows, err := transport.GatherAll(ctx, fab, 0, sched.gainRequest.Tag)
	if err != nil {
		return nil, nil, transport.AnnotatePhase(err, PhaseGain)
	}
	for j := 1; j <= params.N; j++ {
		msg, ok := flows[j].(*dotprod.BobMessage)
		if !ok {
			return nil, nil, transport.Abort(j, sched.gainRequest.Tag, PhaseGain,
				fmt.Errorf("core: participant %d sent a malformed gain flow", j))
		}
		if err := msg.Validate(dp); err != nil {
			return nil, nil, transport.Abort(j, sched.gainRequest.Tag, PhaseGain,
				fmt.Errorf("core: participant %d sent an invalid gain flow: %w", j, err))
		}
		rhoJ, err := fixedbig.RandInt(rng, rho)
		if err != nil {
			return nil, nil, err
		}
		rhoJs[j-1] = rhoJ
		reply, err := dotprod.AliceRespond(dp, msg, vPrime, rhoJ)
		if err != nil {
			return nil, nil, fmt.Errorf("core: answering participant %d: %w", j, err)
		}
		if err := fab.Send(sched.gainReply.Tag, 0, j, sched.gainReply.Bytes, reply); err != nil {
			return nil, nil, transport.AnnotatePhase(err, PhaseGain)
		}
	}

	// Phase 3: collect one submission or decline from every participant.
	obs.Begin(PhaseSubmission)
	subs, err := transport.GatherAll(ctx, fab, 0, sched.submit.Tag)
	if err != nil {
		return nil, nil, transport.AnnotatePhase(err, PhaseSubmission)
	}
	var submissions []Submission
	for j := 1; j <= params.N; j++ {
		msg, ok := subs[j].(submissionMsg)
		if !ok {
			return nil, nil, transport.Abort(j, sched.submit.Tag, PhaseSubmission,
				fmt.Errorf("core: participant %d sent a malformed submission", j))
		}
		if err := msg.validate(params); err != nil {
			return nil, nil, transport.Abort(j, sched.submit.Tag, PhaseSubmission,
				fmt.Errorf("core: participant %d sent an invalid submission: %w", j, err))
		}
		if msg.Declined {
			continue
		}
		profile := workload.Profile{Values: msg.Values}
		gain, err := q.Gain(crit, profile)
		if err != nil {
			return nil, nil, fmt.Errorf("core: recomputing gain of participant %d: %w", j, err)
		}
		submissions = append(submissions, Submission{
			Participant: j - 1,
			ClaimedRank: msg.Rank,
			Profile:     profile,
			Gain:        gain,
		})
	}
	slices.SortFunc(submissions, func(a, b Submission) int {
		return cmp.Or(cmp.Compare(a.ClaimedRank, b.ClaimedRank), cmp.Compare(a.Participant, b.Participant))
	})

	// Over-claim detection: recompute β̂ = ρ·p̂ + ρ_j from each submitted
	// profile and flag every pair whose claimed-rank order contradicts
	// the recomputed gain order.
	suspicious := map[int]bool{}
	betaHat := make([]*big.Int, len(submissions))
	for i, s := range submissions {
		pg, err := q.PartialGain(crit, s.Profile)
		if err != nil {
			return nil, nil, err
		}
		betaHat[i] = new(big.Int).Mul(rho, pg)
		betaHat[i].Add(betaHat[i], rhoJs[s.Participant])
	}
	for a := range submissions {
		for b := a + 1; b < len(submissions); b++ {
			rankCmp := cmp.Compare(submissions[a].ClaimedRank, submissions[b].ClaimedRank)
			betaCmp := betaHat[b].Cmp(betaHat[a]) // descending: higher β ⇒ lower rank
			// Inconsistent when the claimed order contradicts the
			// recomputed order, or when two distinct β values claim the
			// same rank (honest equal ranks only arise from equal β).
			if (rankCmp != 0 && betaCmp != 0 && rankCmp != betaCmp) ||
				(rankCmp == 0 && betaCmp != 0) {
				suspicious[submissions[a].Participant] = true
				suspicious[submissions[b].Participant] = true
			}
		}
	}
	flagged := make([]int, 0, len(suspicious))
	for p := range suspicious {
		flagged = append(flagged, p)
	}
	sort.Ints(flagged)
	return submissions, flagged, nil
}
