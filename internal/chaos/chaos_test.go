package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/leakcheck"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
	"groupranking/internal/workload"
)

// buildPlan derives one reproducible fault schedule from a seed. About
// half the schedules leave each fault kind off entirely, so a healthy
// fraction of runs completes and exercises the correct-ranking arm of
// the safety contract; the rest mix low per-message probabilities, and
// some add a targeted party crash or link sever.
func buildPlan(seed int64, parties int) transport.FaultPlan {
	r := rand.New(rand.NewSource(seed ^ 0x5eedc0de))
	pick := func(max float64) float64 {
		if r.Float64() < 0.5 {
			return 0
		}
		return r.Float64() * max
	}
	pl := transport.FaultPlan{
		Seed:      seed,
		Drop:      pick(0.04),
		Corrupt:   pick(0.04),
		Duplicate: pick(0.05),
		Reorder:   pick(0.05),
		Delay:     pick(0.30),
		MaxDelay:  3 * time.Millisecond,
	}
	if r.Float64() < 0.10 {
		pl.Sever = r.Float64() * 0.01
	}
	if r.Float64() < 0.15 {
		pl.Rules = append(pl.Rules,
			transport.CrashAt(int(r.Int63n(int64(parties))), int(r.Int63n(40))))
	}
	return pl
}

// checkOutcome enforces the safety contract on one finished run.
func checkOutcome(t *testing.T, err error, pl transport.FaultPlan, verify func(t *testing.T)) {
	t.Helper()
	if err == nil {
		verify(t)
		return
	}
	var abort *transport.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("plan %+v: failure is not a typed abort: %v", pl, err)
	}
	if abort.Cause == nil {
		t.Fatalf("plan %+v: abort without cause: %v", pl, err)
	}
}

func chaosGroup(t *testing.T) group.Group {
	t.Helper()
	g, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChaosUnlinkableSort runs the standalone identity-unlinkable sort
// under randomized fault schedules: every run must end in the correct
// ranking or a clean typed abort, with no hang and no leaked goroutine.
func TestChaosUnlinkableSort(t *testing.T) {
	leakcheck.Check(t)
	schedules := 140
	if testing.Short() {
		schedules = 30
	}
	g := chaosGroup(t)
	values := []int64{20, 7, 29, 13}
	expected := []int{2, 4, 1, 3}
	cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: true}
	for s := 0; s < schedules; s++ {
		s := s
		t.Run(fmt.Sprintf("seed-%03d", s), func(t *testing.T) {
			t.Parallel()
			pl := buildPlan(int64(s), len(values))
			betas := make([]*big.Int, len(values))
			for i, v := range values {
				betas[i] = big.NewInt(v)
			}
			var fn *transport.FaultNet
			wrap := func(n transport.Net) transport.Net {
				fn = transport.NewFaultNet(n, pl)
				return fn
			}
			results, _, err := unlinksort.RunCtx(context.Background(), cfg, betas,
				fmt.Sprintf("chaos-sort-%d", s), wrap,
				transport.WithRecvTimeout(500*time.Millisecond))
			fn.Flush()
			fn.Wait()
			checkOutcome(t, err, pl, func(t *testing.T) {
				for i, r := range results {
					if r.Rank != expected[i] {
						t.Fatalf("plan %+v: party %d ranked %d, want %d — wrong ranking under faults",
							pl, i, r.Rank, expected[i])
					}
				}
			})
		})
	}
}

// TestChaosFramework runs the full three-phase framework (gain
// computation, phase-2 sort, submission with over-claim detection)
// under randomized fault schedules, alternating between the unlinkable
// sorter and the secret-sharing baseline.
func TestChaosFramework(t *testing.T) {
	leakcheck.Check(t)
	schedules := 80
	if testing.Short() {
		schedules = 20
	}
	g := chaosGroup(t)
	params := core.Params{
		N: 4, M: 2, T: 1, D1: 4, D2: 3, H: 4, K: 2,
		Group: g, SkipProofs: true,
	}
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG("chaos-framework-inputs")
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}
	gains := make([]*big.Int, params.N)
	for i, p := range profiles {
		if gains[i], err = q.Gain(crit, p); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < schedules; s++ {
		s := s
		t.Run(fmt.Sprintf("seed-%03d", s), func(t *testing.T) {
			t.Parallel()
			p := params
			if s%4 == 3 {
				p.Sorter = core.SorterSecretSharing
			}
			pl := buildPlan(int64(1000+s), p.N+1)
			var fn *transport.FaultNet
			wrap := func(n transport.Net) transport.Net {
				fn = transport.NewFaultNet(n, pl)
				return fn
			}
			res, _, err := core.RunCtx(context.Background(), p, in,
				fmt.Sprintf("chaos-fw-%d", s), wrap,
				transport.WithRecvTimeout(500*time.Millisecond))
			fn.Flush()
			fn.Wait()
			checkOutcome(t, err, pl, func(t *testing.T) {
				// Strictly larger gain must get a strictly better rank;
				// gain ties may be split arbitrarily by the masking
				// offsets, which the paper accepts.
				for a := range gains {
					for b := range gains {
						if gains[a].Cmp(gains[b]) > 0 && res.Ranks[a] >= res.Ranks[b] {
							t.Fatalf("plan %+v: ranks %v violate gain order at (%d, %d) — wrong ranking under faults",
								pl, res.Ranks, a, b)
						}
					}
				}
			})
		})
	}
}

// TestAbortLeavesPartialTrace crashes one participant from its first
// send and asserts the observability registry outlives the abort: the
// spans recorded up to the failure are still there, and the phase the
// typed abort names is among them — the contract the CLIs rely on when
// they dump a partial trace next to the abort diagnosis.
func TestAbortLeavesPartialTrace(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	params := core.Params{
		N: 4, M: 2, T: 1, D1: 4, D2: 3, H: 4, K: 2,
		Group: g, SkipProofs: true,
	}
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG("chaos-partial-trace")
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}
	var fn *transport.FaultNet
	wrap := func(n transport.Net) transport.Net {
		fn = transport.NewFaultNet(n, transport.FaultPlan{
			Rules: []transport.FaultRule{transport.CrashAt(2, -1)},
		})
		return fn
	}
	reg := obsv.NewRegistry()
	ctx := obsv.WithRegistry(context.Background(), reg)
	_, _, err = core.RunCtx(ctx, params, in, "chaos-partial-trace", wrap,
		transport.WithRecvTimeout(500*time.Millisecond))
	fn.Flush()
	fn.Wait()
	var abort *transport.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("crash did not produce a typed abort: %v", err)
	}
	spans := reg.Spans()
	if len(spans) == 0 {
		t.Fatal("aborted run left an empty registry; partial spans must survive")
	}
	phases := make(map[string]bool)
	for _, sp := range spans {
		phases[sp.Phase] = true
	}
	if !phases[abort.Phase] {
		t.Errorf("abort names phase %q but the trace only has %v", abort.Phase, phases)
	}
}

// TestCrashPropagationFabric crashes one party at its very first send
// over the in-memory fabric and asserts that every survivor aborts with
// a typed error naming the crashed party, its protocol phase and the
// round it was waiting on.
func TestCrashPropagationFabric(t *testing.T) {
	leakcheck.Check(t)
	const n, crashed = 4, 2
	g := chaosGroup(t)
	cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: true}
	fab, err := transport.New(n, transport.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	fn := transport.NewFaultNet(fab, transport.FaultPlan{
		Rules: []transport.FaultRule{transport.CrashAt(crashed, -1)},
	})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := fixedbig.NewDRBG(fmt.Sprintf("crash-fabric-%d", me))
			_, errs[me] = unlinksort.PartyCtx(context.Background(), cfg, me, fn,
				big.NewInt(int64(me+1)), rng)
		}()
	}
	wg.Wait()
	for me, err := range errs {
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("party %d: no typed abort, got %v", me, err)
		}
		if abort.Party != crashed {
			t.Errorf("party %d abort names party %d, want %d", me, abort.Party, crashed)
		}
		if abort.Phase == "" {
			t.Errorf("party %d abort has no phase: %v", me, abort)
		}
		if abort.Round < 0 {
			t.Errorf("party %d abort has no round: %v", me, abort)
		}
		want := transport.ErrPeerDown
		if me == crashed {
			want = transport.ErrCrashed
		}
		if !errors.Is(err, want) {
			t.Errorf("party %d abort cause = %v, want %v", me, abort.Cause, want)
		}
	}
}

// TestCrashPropagationTCP kills one party of a real loopback TCP mesh
// mid-protocol and asserts that both survivors abort with a typed error
// naming the dead party rather than hanging or panicking in the codec.
func TestCrashPropagationTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test skipped in short mode")
	}
	leakcheck.Check(t)
	const n, victim = 3, 1
	g := chaosGroup(t)
	cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: true}
	addrs, err := transport.FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*transport.TCPFabric, n)
	dialErrs := make([]error, n)
	var dial sync.WaitGroup
	for me := 0; me < n; me++ {
		me := me
		dial.Add(1)
		go func() {
			defer dial.Done()
			fabrics[me], dialErrs[me] = transport.NewTCPFabric(addrs, me, 5*time.Second)
		}()
	}
	dial.Wait()
	for me, err := range dialErrs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabrics {
			f.Close()
		}
	})

	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		if me == victim {
			continue
		}
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := fixedbig.NewDRBG(fmt.Sprintf("crash-tcp-%d", me))
			_, errs[me] = unlinksort.PartyCtx(context.Background(), cfg, me, fabrics[me],
				big.NewInt(int64(me+1)), rng)
		}()
	}
	// The victim connects, then dies without sending a single protocol
	// message: its peers must detect the closed connections.
	fabrics[victim].Close()
	wg.Wait()
	for me, err := range errs {
		if me == victim {
			continue
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("party %d: no typed abort, got %v", me, err)
		}
		if abort.Party != victim {
			t.Errorf("party %d abort names party %d, want %d", me, abort.Party, victim)
		}
		if abort.Phase == "" {
			t.Errorf("party %d abort has no phase: %v", me, abort)
		}
		if !errors.Is(err, transport.ErrPeerDown) {
			t.Errorf("party %d abort cause = %v, want peer-down", me, abort.Cause)
		}
	}
}

// TestChaosReproducible asserts that the same seed injects the same
// faults: the identical send script through two FaultNets with one plan
// must produce identical injected-fault tallies, so any chaos failure
// can be replayed from its seed alone.
func TestChaosReproducible(t *testing.T) {
	leakcheck.Check(t)
	pl := transport.FaultPlan{Seed: 42, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.1,
		Reorder: 0.1, Delay: 0.2, MaxDelay: time.Millisecond}
	script := func() transport.FaultCounts {
		fab, err := transport.New(3)
		if err != nil {
			t.Fatal(err)
		}
		fn := transport.NewFaultNet(fab, pl)
		for round := 1; round <= 25; round++ {
			for from := 0; from < 3; from++ {
				for to := 0; to < 3; to++ {
					if to == from {
						continue
					}
					_ = fn.Send(round, from, to, 8, round)
				}
			}
		}
		fn.Flush()
		fn.Wait()
		return fn.Counts()
	}
	a, b := script(), script()
	if a == (transport.FaultCounts{}) {
		t.Fatal("plan injected no faults at all")
	}
	if a != b {
		t.Fatalf("same seed, different faults: %+v vs %+v", a, b)
	}
}
