package core

import (
	"context"
	"testing"

	"groupranking/internal/workload"
)

// TestTranscriptShapeIndependentOfInputs is the operational counterpart
// of the indistinguishability definitions (Definitions 5 and 7): the
// observable communication pattern — every message's round, endpoints
// and byte size — must be identical regardless of which private inputs
// the honest parties hold. If any message's presence or size depended
// on an input value, an adversary could distinguish transcripts without
// breaking any cryptography. We run the framework twice with the
// profiles of two participants swapped and require byte-for-byte equal
// traces.
func TestTranscriptShapeIndependentOfInputs(t *testing.T) {
	params := smallParams(t, 4)
	in := testInputs(t, params, "shape-base")

	swapped := in
	swapped.Profiles = append([]workload.Profile(nil), in.Profiles...)
	swapped.Profiles[1], swapped.Profiles[2] = in.Profiles[2], in.Profiles[1]

	_, fabA, err := RunCtx(context.Background(), params, in, "shape-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, fabB, err := RunCtx(context.Background(), params, swapped, "shape-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	trA, trB := fabA.Trace(), fabB.Trace()
	if len(trA) != len(trB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(trA), len(trB))
	}
	// Event order may interleave across concurrent parties; compare the
	// multiset of (round, from, to, bytes) events. Phase 3 is excluded:
	// submission sizes intentionally reveal which participants are in
	// the top k (that disclosure is the protocol's output, Definition 2);
	// there we only require the multiset of sizes to match, not the
	// senders.
	count := map[[4]int]int{}
	subsA := map[int]int{}
	for _, ev := range trA {
		if ev.Round == roundSubmission {
			subsA[ev.Bytes]++
			continue
		}
		count[[4]int{ev.Round, ev.From, ev.To, ev.Bytes}]++
	}
	for _, ev := range trB {
		if ev.Round == roundSubmission {
			subsA[ev.Bytes]--
			continue
		}
		key := [4]int{ev.Round, ev.From, ev.To, ev.Bytes}
		count[key]--
		if count[key] < 0 {
			t.Fatalf("event %+v appears in the swapped run but not the base run", ev)
		}
	}
	for key, c := range count {
		if c != 0 {
			t.Fatalf("event %v missing from the swapped run", key)
		}
	}
	for size, c := range subsA {
		if c != 0 {
			t.Fatalf("submission size %d appears %+d times more in one run", size, c)
		}
	}
}

// TestTranscriptShapeIndependentOfValuesMagnitude repeats the check with
// extreme value spreads: all-minimum vs all-maximum profiles. Sizes on
// the wire are fixed-width, so magnitude must not show.
func TestTranscriptShapeIndependentOfValuesMagnitude(t *testing.T) {
	params := smallParams(t, 3)
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	crit := workload.Criterion{Values: []int64{1, 2, 3, 4}, Weights: []int64{1, 1, 1, 1}}
	low := make([]workload.Profile, params.N)
	high := make([]workload.Profile, params.N)
	maxVal := int64(1)<<uint(params.D1) - 1
	for i := range low {
		low[i] = workload.Profile{Values: []int64{0, 0, 0, 0}}
		high[i] = workload.Profile{Values: []int64{maxVal, maxVal, maxVal, maxVal}}
	}
	_, fabLow, err := RunCtx(context.Background(), params, Inputs{Questionnaire: q, Criterion: crit, Profiles: low}, "mag-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, fabHigh, err := RunCtx(context.Background(), params, Inputs{Questionnaire: q, Criterion: crit, Profiles: high}, "mag-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fabLow.Stats(), fabHigh.Stats()
	for p := range a.BytesSent {
		if a.BytesSent[p] != b.BytesSent[p] {
			t.Errorf("party %d: %d bytes with low values, %d with high", p, a.BytesSent[p], b.BytesSent[p])
		}
	}
	if a.DistinctRounds != b.DistinctRounds {
		t.Errorf("round counts differ: %d vs %d", a.DistinctRounds, b.DistinctRounds)
	}
}

// TestBetasHideGainMagnitude checks the masking property behind
// Definition 4/5 at the framework level: the observable β values are
// masked by ρ and ρ_j, so the initiator's recomputation aside, a β value
// alone must not reveal the partial gain (β/ρ is unknown without ρ).
// Operationally: rerunning with a different seed (hence different ρ)
// yields entirely different β values for identical inputs, while ranks
// are unchanged.
func TestBetasHideGainMagnitude(t *testing.T) {
	params := smallParams(t, 3)
	in := testInputs(t, params, "mask")
	r1, _, err := RunCtx(context.Background(), params, in, "mask-seed-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := RunCtx(context.Background(), params, in, "mask-seed-2", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBetas := 0
	for j := range r1.Betas {
		if r1.Ranks[j] != r2.Ranks[j] {
			t.Errorf("participant %d: rank changed across seeds (%d vs %d)", j, r1.Ranks[j], r2.Ranks[j])
		}
		if r1.Betas[j].Cmp(r2.Betas[j]) == 0 {
			sameBetas++
		}
	}
	if sameBetas == len(r1.Betas) {
		t.Error("β values identical across masking seeds; ρ masking looks inert")
	}
}
