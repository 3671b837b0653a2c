package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/journal"
	"groupranking/internal/leakcheck"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// The kill-and-restart schedules: one party of a real loopback TCP
// session dies mid-protocol — after a scheduled number of transport
// operations — and a "restarted process" (same seed, same journal,
// fresh fabric at the next epoch) takes over. The session must complete
// with results identical to the fault-free run: the journal replay
// plus seed-fixed determinism make the crash invisible to everyone.

// errKilled simulates the process dying: the scheduled operation never
// reaches the transport (exactly like a crash just before the call).
var errKilled = errors.New("chaos: scheduled process death")

// killNet counts the party's transport operations and kills the
// process at the scheduled one.
type killNet struct {
	transport.Net
	mu    sync.Mutex
	ops   int
	after int
	fired bool
}

func (k *killNet) step() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ops++
	if k.ops > k.after {
		k.fired = true
		return errKilled
	}
	return nil
}

func (k *killNet) Send(round, from, to, bytes int, payload any) error {
	if err := k.step(); err != nil {
		return err
	}
	return k.Net.Send(round, from, to, bytes, payload)
}

func (k *killNet) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if err := k.step(); err != nil {
		return nil, err
	}
	return k.Net.RecvCtx(ctx, to, from, round)
}

// EchoRequired forwards the capability probe: a wrapper that hides it
// would make the wrapped party silently skip echo sub-rounds the rest
// of the mesh runs, desynchronising the session.
func (k *killNet) EchoRequired() bool { return transport.NeedsEcho(k.Net) }

// restartResult is one completed session's outcome, in comparable form.
type restartResult struct {
	mu      sync.Mutex
	ranks   map[int]int // participant -> rank
	subs    string      // initiator's submissions, rendered
	flagged int
}

// killSpec schedules one party's death.
type killSpec struct {
	party int // 0 = initiator
	after int // transport ops before the crash
}

// runRestartSession runs the full framework (initiator + N
// participants) over recovering TCP fabrics, killing and restarting
// kill.party mid-run when kill is non-nil.
func runRestartSession(t *testing.T, params core.Params, q *workload.Questionnaire,
	crit workload.Criterion, profiles []workload.Profile, seed, sid string, kill *killSpec) *restartResult {
	t.Helper()
	nParties := params.N + 1
	addrs, err := transport.FreeLoopbackAddrs(nParties)
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	const timeout = 60 * time.Second

	res := &restartResult{ranks: make(map[int]int)}
	errs := make([]error, nParties)
	var wg sync.WaitGroup
	for me := 0; me < nParties; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[me] = runRestartParty(params, q, crit, profiles, seed, sid, addrs, me, jdir, timeout, kill, res)
		}()
	}
	wg.Wait()
	failed := false
	for me, err := range errs {
		if err != nil {
			t.Errorf("party %d: %v", me, err)
			failed = true
		}
	}
	if failed {
		t.FailNow()
	}
	return res
}

// runRestartParty runs one party, dying and restarting per kill.
func runRestartParty(params core.Params, q *workload.Questionnaire, crit workload.Criterion,
	profiles []workload.Profile, seed, sid string, addrs []string, me int,
	jdir string, timeout time.Duration, kill *killSpec, res *restartResult) error {
	victim := kill != nil && kill.party == me
	var j *journal.Journal
	epoch := 1
	if victim {
		var err error
		if j, err = journal.Open(journal.SessionPath(jdir, sid, me)); err != nil {
			return err
		}
		if epoch, err = j.BeginEpoch(); err != nil {
			return err
		}
	}
	for life := 0; ; life++ {
		var jnl transport.Journaler
		if j != nil {
			jnl = j
		}
		fab, err := transport.NewRecoveringTCPFabric(addrs, me, timeout, transport.RecoverOptions{
			SessionID: sid, Epoch: epoch, Journal: jnl,
			Grace: 20 * time.Second,
		})
		if err != nil {
			return fmt.Errorf("life %d: %w", life, err)
		}
		var net transport.Net = fab
		if victim && life == 0 {
			net = &killNet{Net: fab, after: kill.after}
		}
		err = runRestartRole(params, q, crit, profiles, seed, me, net, res)
		if err == nil {
			// A finished party drains before leaving, exactly as the
			// deployment harness does, so a crashed peer's replacement can
			// still collect what it missed.
			fab.Drain(0)
			fab.Close()
			if j != nil {
				j.Close()
			}
			return nil
		}
		fab.Close()
		if !errors.Is(err, errKilled) {
			if j != nil {
				j.Close()
			}
			return fmt.Errorf("life %d: %w", life, err)
		}
		// The "restarted process": reopen the journal, advance the epoch,
		// and rerun the whole deterministic computation from scratch.
		j.Close()
		if j, err = journal.Open(journal.SessionPath(jdir, sid, me)); err != nil {
			return err
		}
		if epoch, err = j.BeginEpoch(); err != nil {
			return err
		}
	}
}

// runRestartRole is one life of one party's role through the
// deployment runner, with randomness re-derived from the seed exactly
// as a restarted process would.
func runRestartRole(params core.Params, q *workload.Questionnaire, crit workload.Criterion,
	profiles []workload.Profile, seed string, me int, net transport.Net, res *restartResult) error {
	role := core.Role{Me: me, Questionnaire: q, Criterion: crit}
	if me > 0 {
		role = core.Role{Me: me, Questionnaire: q, Profile: profiles[me-1]}
	}
	out, err := core.RunParty(context.Background(), params, role, seed, net, func(string) {})
	if err != nil {
		return err
	}
	res.mu.Lock()
	defer res.mu.Unlock()
	if me > 0 {
		res.ranks[me] = out.Participant.Rank
		return nil
	}
	rendered := ""
	for _, s := range out.Submissions {
		rendered += fmt.Sprintf("rank %d: participant %d profile %v gain %v; ",
			s.ClaimedRank, s.Participant, s.Profile.Values, s.Gain)
	}
	res.subs, res.flagged = rendered, len(out.Suspicious)
	return nil
}

// TestRestartSchedules kills one party at a range of points across the
// protocol — session establishment, the gain phase, mid-sort — restarts
// it from its journal, and demands results identical to the fault-free
// baseline, for both a participant and the initiator as the victim.
func TestRestartSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("restart schedules skipped in short mode")
	}
	leakcheck.Check(t)
	g := chaosGroup(t)
	params := core.Params{
		N: 3, M: 2, T: 1, D1: 4, D2: 3, H: 4, K: 2,
		Group: g, SkipProofs: true,
	}
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG("chaos-restart-inputs")
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = "chaos-restart-seed"

	baseline := runRestartSession(t, params, q, crit, profiles, seed, "restart-base", nil)
	if len(baseline.ranks) != params.N || baseline.subs == "" {
		t.Fatalf("baseline incomplete: ranks %v, subs %q", baseline.ranks, baseline.subs)
	}

	schedules := []killSpec{
		{party: 2, after: 2},  // during session establishment
		{party: 2, after: 5},  // in the gain phase
		{party: 2, after: 9},  // entering the sort
		{party: 2, after: 14}, // mid-sort
		{party: 0, after: 5},  // the initiator itself, in the gain phase
	}
	for i, sc := range schedules {
		sc := sc
		t.Run(fmt.Sprintf("kill-p%d-after-%d", sc.party, sc.after), func(t *testing.T) {
			got := runRestartSession(t, params, q, crit, profiles, seed,
				fmt.Sprintf("restart-%d", i), &sc)
			for p, want := range baseline.ranks {
				if got.ranks[p] != want {
					t.Errorf("participant %d ranked %d, fault-free baseline says %d",
						p, got.ranks[p], want)
				}
			}
			if got.subs != baseline.subs {
				t.Errorf("initiator submissions diverged:\n got %q\nwant %q", got.subs, baseline.subs)
			}
			if got.flagged != baseline.flagged {
				t.Errorf("flagged count %d, baseline %d", got.flagged, baseline.flagged)
			}
		})
	}
}
