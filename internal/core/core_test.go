package core

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"testing"
	"time"

	"groupranking/internal/dotprod"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/netsim"
	"groupranking/internal/nettap"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// coreGroup generates the tests' group once: GenerateDLGroup is a
// function of its DRBG's stream, so every test would get this group
// anyway, and the safe-prime search need not run per test.
var coreGroup = sync.OnceValues(func() (*group.DLGroup, error) {
	return group.GenerateDLGroup(128, fixedbig.NewDRBG("core-group"))
})

func testGroup(t *testing.T) group.Group {
	t.Helper()
	g, err := coreGroup()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// smallParams returns a laptop-fast framework configuration.
func smallParams(t *testing.T, n int) Params {
	t.Helper()
	return Params{
		N: n, M: 4, T: 2, D1: 6, D2: 4, H: 6, K: 2,
		Group: testGroup(t),
	}
}

func testInputs(t *testing.T, params Params, seed string) Inputs {
	t.Helper()
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG(seed)
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}
}

// checkRanksConsistent verifies the ranking guarantee: strictly larger
// gain implies strictly better (smaller) rank. Gain ties may be split
// arbitrarily by the masking offsets ρ_j, which the paper accepts.
func checkRanksConsistent(t *testing.T, in Inputs, ranks []int) {
	t.Helper()
	gains := make([]*big.Int, len(in.Profiles))
	for i, p := range in.Profiles {
		g, err := in.Questionnaire.Gain(in.Criterion, p)
		if err != nil {
			t.Fatal(err)
		}
		gains[i] = g
	}
	for a := range gains {
		for b := range gains {
			if gains[a].Cmp(gains[b]) > 0 && ranks[a] >= ranks[b] {
				t.Errorf("participant %d (gain %s, rank %d) vs %d (gain %s, rank %d): order violated",
					a, gains[a], ranks[a], b, gains[b], ranks[b])
			}
		}
	}
}

func TestFrameworkEndToEnd(t *testing.T) {
	params := smallParams(t, 4)
	in := testInputs(t, params, "e2e")
	res, fab, err := RunCtx(context.Background(), params, in, "e2e-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRanksConsistent(t, in, res.Ranks)
	if len(res.Suspicious) != 0 {
		t.Errorf("honest run flagged participants %v", res.Suspicious)
	}
	// Everyone ranked ≤ k must have submitted, nobody else.
	want := map[int]bool{}
	for j, r := range res.Ranks {
		if r <= params.K {
			want[j] = true
		}
	}
	got := map[int]bool{}
	for _, s := range res.Submissions {
		got[s.Participant] = true
		if s.ClaimedRank != res.Ranks[s.Participant] {
			t.Errorf("participant %d claimed rank %d, computed %d", s.Participant, s.ClaimedRank, res.Ranks[s.Participant])
		}
		// The initiator's recomputed gain must match the ground truth.
		g, err := in.Questionnaire.Gain(in.Criterion, in.Profiles[s.Participant])
		if err != nil {
			t.Fatal(err)
		}
		if s.Gain.Cmp(g) != 0 {
			t.Errorf("participant %d recomputed gain %s, want %s", s.Participant, s.Gain, g)
		}
	}
	for j := range want {
		if !got[j] {
			t.Errorf("top-k participant %d did not submit", j)
		}
	}
	for j := range got {
		if !want[j] {
			t.Errorf("low-ranking participant %d submitted", j)
		}
	}
	if fab.Stats().TotalBytes() == 0 {
		t.Error("no traffic recorded")
	}
}

func TestFrameworkBetaOrderMatchesGainOrder(t *testing.T) {
	params := smallParams(t, 5)
	in := testInputs(t, params, "beta-order")
	res, _, err := RunCtx(context.Background(), params, in, "beta-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	for a := range in.Profiles {
		ga, err := in.Questionnaire.Gain(in.Criterion, in.Profiles[a])
		if err != nil {
			t.Fatal(err)
		}
		for b := range in.Profiles {
			gb, err := in.Questionnaire.Gain(in.Criterion, in.Profiles[b])
			if err != nil {
				t.Fatal(err)
			}
			if ga.Cmp(gb) > 0 && res.Betas[a].Cmp(res.Betas[b]) <= 0 {
				t.Errorf("β order broken between %d and %d", a, b)
			}
		}
	}
}

func TestFrameworkSecretSharingBaseline(t *testing.T) {
	params := smallParams(t, 5) // odd n keeps (n−1)/2 degree meaningful
	params.Sorter = SorterSecretSharing
	in := testInputs(t, params, "ss-base")
	res, _, err := RunCtx(context.Background(), params, in, "ss-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRanksConsistent(t, in, res.Ranks)
}

func TestSortersAgree(t *testing.T) {
	paramsU := smallParams(t, 5)
	in := testInputs(t, paramsU, "agree")
	resU, _, err := RunCtx(context.Background(), paramsU, in, "agree-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	paramsS := paramsU
	paramsS.Sorter = SorterSecretSharing
	resS, _, err := RunCtx(context.Background(), paramsS, in, "agree-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range resU.Ranks {
		if resU.Ranks[j] != resS.Ranks[j] {
			t.Errorf("participant %d: unlinkable rank %d, SS rank %d", j, resU.Ranks[j], resS.Ranks[j])
		}
	}
}

func TestDeterministicSeedsReproduce(t *testing.T) {
	params := smallParams(t, 3)
	in := testInputs(t, params, "det")
	r1, _, err := RunCtx(context.Background(), params, in, "det-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := RunCtx(context.Background(), params, in, "det-run", nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range r1.Ranks {
		if r1.Ranks[j] != r2.Ranks[j] || r1.Betas[j].Cmp(r2.Betas[j]) != 0 {
			t.Errorf("participant %d not reproducible", j)
		}
	}
}

func TestTiedGainsShareOrSplitConsistently(t *testing.T) {
	// Identical profiles have identical gains; their β values differ only
	// in ρ_j, so ranks may split, but the set of ranks must still be
	// consistent: every participant's rank equals 1 + number of strictly
	// larger βs.
	params := smallParams(t, 3)
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	crit := workload.Criterion{Values: []int64{10, 20, 30, 40}, Weights: []int64{1, 2, 3, 4}}
	same := workload.Profile{Values: []int64{10, 20, 35, 45}}
	in := Inputs{
		Questionnaire: q,
		Criterion:     crit,
		Profiles:      []workload.Profile{same, same, same},
	}
	res, _, err := RunCtx(context.Background(), params, in, "tied", nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range res.Ranks {
		wantRank := 1
		for i := range res.Betas {
			if res.Betas[i].Cmp(res.Betas[j]) > 0 {
				wantRank++
			}
		}
		if r != wantRank {
			t.Errorf("participant %d: rank %d, β order says %d", j, r, wantRank)
		}
	}
}

func TestExpectedRanks(t *testing.T) {
	q, err := workload.Uniform(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	crit := workload.Criterion{Values: []int64{0, 0}, Weights: []int64{1, 1}}
	profiles := []workload.Profile{
		{Values: []int64{5, 5}}, // gain 10
		{Values: []int64{9, 9}}, // gain 18
		{Values: []int64{5, 5}}, // gain 10 (tie)
		{Values: []int64{1, 1}}, // gain 2
	}
	ranks, err := ExpectedRanks(q, crit, profiles)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 2, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	g := testGroup(t)
	valid := Params{N: 3, M: 2, T: 1, D1: 8, D2: 8, H: 8, K: 1, Group: g}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.N = 1 },
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.T = 3 },
		func(p *Params) { p.T = -1 },
		func(p *Params) { p.D1 = 0 },
		func(p *Params) { p.D2 = 31 },
		func(p *Params) { p.H = 0 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.K = 4 },
		func(p *Params) { p.Group = nil },
	}
	for i, mutate := range mutations {
		p := valid
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, p)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	params := smallParams(t, 3)
	in := testInputs(t, params, "val")

	if _, _, err := RunCtx(context.Background(), params, Inputs{}, "x", nil); err == nil {
		t.Error("missing questionnaire accepted")
	}
	short := in
	short.Profiles = in.Profiles[:1]
	if _, _, err := RunCtx(context.Background(), params, short, "x", nil); err == nil {
		t.Error("wrong profile count accepted")
	}
	mis := in
	var err error
	mis.Questionnaire, err = workload.Uniform(params.M+1, params.T)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCtx(context.Background(), params, mis, "x", nil); err == nil {
		t.Error("questionnaire shape mismatch accepted")
	}
}

func TestOverClaimDetection(t *testing.T) {
	// Three forged participants run phase 1 honestly and then submit
	// claimed ranks that contradict their actual gains; the initiator
	// must flag the inconsistency (the paper's over-claim argument).
	params := smallParams(t, 3)
	params.K = 3
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	crit := workload.Criterion{Values: []int64{10, 20, 30, 40}, Weights: []int64{1, 2, 3, 4}}
	// Distinct gains: profile 0 best, 2 worst.
	profiles := []workload.Profile{
		{Values: []int64{10, 20, 60, 60}},
		{Values: []int64{10, 20, 40, 40}},
		{Values: []int64{10, 20, 31, 31}},
	}
	claims := []int{2, 3, 1} // worst participant claims rank 1

	fab, err := transport.New(params.N+1, transport.WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	prime, err := params.fieldPrime()
	if err != nil {
		t.Fatal(err)
	}
	dp := dotprod.DefaultSRange(prime)

	initDone := make(chan struct {
		flagged []int
		err     error
	}, 1)
	go func() {
		rng := fixedbig.NewDRBG("overclaim-initiator")
		_, flagged, err := runInitiator(context.Background(), params, q, crit, fab, rng)
		initDone <- struct {
			flagged []int
			err     error
		}{flagged, err}
	}()
	for j := 1; j <= params.N; j++ {
		j := j
		go func() {
			rng := fixedbig.NewDRBG(fmt.Sprintf("overclaim-%d", j))
			w, err := q.ParticipantVector(profiles[j-1])
			if err != nil {
				t.Error(err)
				return
			}
			bob, flow, err := dotprod.NewBob(dp, w, rng)
			if err != nil {
				t.Error(err)
				return
			}
			if err := fab.Send(roundGainRequest, j, 0, newSchedule(params, dp.FieldBytes()).gainRequest.Size(len(flow.QX)), flow); err != nil {
				t.Error(err)
				return
			}
			payload, err := fab.RecvCtx(context.Background(), j, 0, -1)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := bob.Finish(payload.(*dotprod.AliceReply)); err != nil {
				t.Error(err)
				return
			}
			// Skip phase 2 entirely and submit a forged rank.
			msg := submissionMsg{Rank: claims[j-1], Values: profiles[j-1].Values}
			if err := fab.Send(roundSubmission, j, 0, 32, msg); err != nil {
				t.Error(err)
			}
		}()
	}
	out := <-initDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.flagged) == 0 {
		t.Fatal("over-claim went undetected")
	}
	// The worst participant (index 2) must be among the flagged.
	found := false
	for _, p := range out.flagged {
		if p == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("flagged %v does not include the over-claimer 2", out.flagged)
	}
}

func TestSorterString(t *testing.T) {
	if SorterUnlinkable.String() != "unlinkable" || SorterSecretSharing.String() != "secret-sharing" {
		t.Error("sorter labels wrong")
	}
	if Sorter(9).String() == "" {
		t.Error("unknown sorter must still print")
	}
}

// TestWorkersKeepRanks is the parallel kernel's determinism witness at
// n = 8, l = 32 over secp160r1: randomness is drawn serially at every
// Workers setting, so the serial reference (Workers 1) and the full
// worker pool (Workers 0) must rank alike.
func TestWorkersKeepRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("two n=8 framework runs are slow in -short mode")
	}
	params := Params{
		// h + ⌈log₂ m⌉ + 2·d1 + d2 + 3 = 6 + 2 + 16 + 5 + 3 = 32 bits.
		N: 8, M: 4, T: 2, D1: 8, D2: 5, H: 6, K: 2,
		Group: group.Secp160r1(), Sorter: SorterUnlinkable,
	}
	if l := params.BetaBits(); l != 32 {
		t.Fatalf("l = %d, want 32", l)
	}
	in := testInputs(t, params, "workers-witness")
	var ranks [2][]int
	for i, workers := range []int{1, 0} {
		p := params
		p.Workers = workers
		res, _, err := RunCtx(context.Background(), p, in, "workers-witness-run", nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ranks[i] = res.Ranks
	}
	if !slices.Equal(ranks[0], ranks[1]) {
		t.Errorf("ranks at workers=1 %v, at workers=0 %v", ranks[0], ranks[1])
	}
}

// runRecorded runs the framework in-process with a nettap.Recorder
// over the fabric and returns the recorded message trace.
func runRecorded(t *testing.T, params Params, in Inputs, seed string) []netsim.Event {
	t.Helper()
	var rec *nettap.Recorder
	_, _, err := RunCtx(context.Background(), params, in, seed, func(n transport.Net) transport.Net {
		rec = nettap.NewRecorder(n)
		return rec
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

func TestTraceCoversAllPhases(t *testing.T) {
	params := smallParams(t, 3)
	in := testInputs(t, params, "trace")
	var sawGain, sawPhase2, sawSubmission bool
	for _, ev := range runRecorded(t, params, in, "trace-run") {
		switch {
		case ev.Round == roundGainRequest || ev.Round == roundGainReply:
			sawGain = true
		case ev.Round >= phase2RoundOffset && ev.Round < roundSubmission:
			sawPhase2 = true
		case ev.Round == roundSubmission:
			sawSubmission = true
		}
	}
	if !sawGain || !sawPhase2 || !sawSubmission {
		t.Errorf("trace misses phases: gain=%v phase2=%v submission=%v", sawGain, sawPhase2, sawSubmission)
	}
}

// TestFrameworkOverRealTCP runs the complete three-phase framework —
// initiator and participants — over real TCP loopback connections with
// gob-serialised messages, the deployment shape of the paper's fully
// distributed setting.
func TestFrameworkOverRealTCP(t *testing.T) {
	params := smallParams(t, 3)
	// Over a socket the group must be one a peer can name by its wire ID:
	// a ByName group, not the generated test group.
	params.Group = group.Secp160r1()
	in := testInputs(t, params, "tcp-framework")
	addrs, err := transport.FreeLoopbackAddrs(params.N + 1)
	if err != nil {
		t.Fatal(err)
	}

	type initOut struct {
		subs []Submission
		err  error
	}
	initCh := make(chan initOut, 1)
	ranks := make([]int, params.N)
	errs := make([]error, params.N)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		fab, err := transport.NewTCPFabric(addrs, 0, 30*time.Second)
		if err != nil {
			initCh <- initOut{err: err}
			return
		}
		defer fab.Close()
		rng := fixedbig.NewDRBG("tcp-framework-initiator")
		subs, _, err := runInitiator(context.Background(), params, in.Questionnaire, in.Criterion, fab, rng)
		initCh <- initOut{subs: subs, err: err}
	}()
	for j := 1; j <= params.N; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			fab, err := transport.NewTCPFabric(addrs, j, 30*time.Second)
			if err != nil {
				errs[j-1] = err
				return
			}
			defer fab.Close()
			rng := fixedbig.NewDRBG(fmt.Sprintf("tcp-framework-participant-%d", j))
			out, err := runParticipant(context.Background(), params, j, in.Questionnaire, in.Profiles[j-1], fab, rng)
			if err != nil {
				errs[j-1] = err
				return
			}
			ranks[j-1] = out.Rank
		}()
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", j+1, err)
		}
	}
	io := <-initCh
	if io.err != nil {
		t.Fatalf("initiator: %v", io.err)
	}
	checkRanksConsistent(t, in, ranks)
	if len(io.subs) == 0 {
		t.Fatal("initiator received no submissions over TCP")
	}
	for _, s := range io.subs {
		if s.ClaimedRank != ranks[s.Participant] {
			t.Errorf("submission rank %d disagrees with participant rank %d", s.ClaimedRank, ranks[s.Participant])
		}
	}
}
