package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"groupranking"
	"groupranking/internal/api"
	"groupranking/internal/transport"
)

// system is the system under test as one workload reaches it.
type system struct {
	spec    workloadSpec
	workers int     // Options.Workers; 0 except when kernel.speedup is measured
	mesh    *mesh   // rankdMesh only
	trace   *tracer // nil in a timed run: no Observer, no spans
}

// outcome is what one verified ranking cost its caller.
type outcome struct {
	latency time.Duration // call → result
	bytes   int64         // BytesOnWire summed over all parties
	rounds  int           // communication rounds, the most any party saw
	// Client-side stage times of a rankd session.
	create, submit, wait time.Duration
}

// rank runs one ranking through the workload's public entry point and
// checks its result against the ground truth. parent is the span the
// ranking's call spans hang under.
func (s *system) rank(ctx context.Context, in inputs, parent int) (outcome, error) {
	switch s.spec.kind {
	case inProcess:
		return s.rankInProcess(ctx, in, parent)
	case tcpParties:
		return s.rankTCP(ctx, in, parent)
	default:
		return s.rankService(ctx, in, parent)
	}
}

func (s *system) options(in inputs) groupranking.Options {
	opts := s.spec.options(in)
	opts.Workers = s.workers
	return opts
}

// observe gives opts an Observer when the run is traced and returns the
// function that files the Observer's phases under call.
func (s *system) observe(opts *groupranking.Options, in inputs) func(call int) {
	if s.trace == nil {
		return func(int) {}
	}
	created := time.Now()
	opts.Observer = groupranking.NewObserver()
	return func(call int) { s.trace.addPhases(call, in.id, created, opts.Observer.Spans()) }
}

func (s *system) rankInProcess(ctx context.Context, in inputs, parent int) (outcome, error) {
	opts := s.options(in)
	file := s.observe(&opts, in)
	call, end := s.trace.begin(parent, spanCall, "Rank", in.id, -1)
	start := time.Now()
	res, err := groupranking.Rank(ctx, in.q, in.criterion, in.profiles, opts)
	out := outcome{latency: time.Since(start)}
	end()
	file(call)
	if err != nil {
		return out, err
	}
	out.bytes, out.rounds = res.BytesOnWire, res.Rounds
	subs := make([]submission, len(res.Submissions))
	for i, sub := range res.Submissions {
		subs[i] = submission{sub.Participant, sub.ClaimedRank, sub.Profile.Values}
	}
	return out, in.verify(res.Ranks, subs)
}

// rankTCP runs the initiator and every participant as goroutines over
// fresh loopback addresses: the calls cmd/rankparty makes, one mesh per
// ranking.
func (s *system) rankTCP(ctx context.Context, in inputs, parent int) (outcome, error) {
	addrs, err := transport.FreeLoopbackAddrs(s.spec.n + 1)
	if err != nil {
		return outcome{}, err
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		out    outcome
		errs   []error
		ranks  = make([]int, s.spec.n)
		subs   []submission
		record = func(bytes int64, rounds int, err error) {
			mu.Lock()
			defer mu.Unlock()
			out.bytes += bytes
			out.rounds = max(out.rounds, rounds)
			if err != nil {
				errs = append(errs, err)
			}
		}
	)
	start := time.Now()
	for me := 0; me <= s.spec.n; me++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := s.options(in)
			file := s.observe(&opts, in)
			call, end := s.trace.begin(parent, spanCall, fmt.Sprintf("party.%d", me), in.id, me)
			defer func() { end(); file(call) }()
			if me == 0 {
				res, err := groupranking.RankInitiatorParty(ctx, in.q, in.criterion, addrs, opts)
				if err != nil {
					record(0, 0, fmt.Errorf("initiator: %w", err))
					return
				}
				for _, sub := range res.Submissions {
					subs = append(subs, submission{sub.Participant, sub.ClaimedRank, sub.Profile.Values})
				}
				record(res.BytesOnWire, res.Rounds, nil)
				return
			}
			res, err := groupranking.RankParticipantParty(ctx, in.q, addrs, me, in.profiles[me-1], opts)
			if err != nil {
				record(0, 0, fmt.Errorf("participant %d: %w", me, err))
				return
			}
			ranks[me-1] = res.Rank
			record(res.BytesOnWire, res.Rounds, nil)
		}()
	}
	wg.Wait()
	out.latency = time.Since(start)
	if len(errs) > 0 {
		return out, errors.Join(errs...)
	}
	return out, in.verify(ranks, subs)
}

// pollInterval is how often a client asks the initiator daemon whether
// its session is done.
const pollInterval = 2 * time.Millisecond

// rankService drives one rankd session: create at daemon 0, submit one
// profile at each participant daemon, wait for the initiator's result,
// then fetch every participant daemon's own view.
func (s *system) rankService(ctx context.Context, in inputs, parent int) (outcome, error) {
	opts := s.spec.options(in)
	spec := groupranking.SessionSpec{
		Criterion: groupranking.ClientCriterion{Values: in.criterion.Values, Weights: in.criterion.Weights},
		K:         opts.K, D1: opts.D1, D2: opts.D2, H: opts.H,
		GroupName: opts.GroupName, Sorter: api.SorterUnlinkable, Seed: in.id,
	}
	if opts.Sorter == groupranking.SecretSharing {
		spec.Sorter = api.SorterSecretSharing
	}
	for _, a := range in.q.Attributes() {
		kind := groupranking.AttrEqualTo
		if a.Kind == groupranking.GreaterThan {
			kind = groupranking.AttrGreaterThan
		}
		spec.Attributes = append(spec.Attributes, groupranking.ClientAttribute{Name: a.Name, Kind: kind})
	}
	clients := s.mesh.clients
	var out outcome
	stage := func(name string, d *time.Duration, f func() error) error {
		_, end := s.trace.begin(parent, spanCall, name, in.id, -1)
		start := time.Now()
		err := f()
		*d += time.Since(start)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	start := time.Now()
	var id string
	err := stage("api.create", &out.create, func() (err error) {
		id, err = clients[0].CreateSession(ctx, spec)
		return err
	})
	if err != nil {
		return out, err
	}
	for j := 1; j < len(clients); j++ {
		err := stage(fmt.Sprintf("api.submit.%d", j), &out.submit, func() error {
			return clients[j].Submit(ctx, id, in.profiles[j-1].Values)
		})
		if err != nil {
			return out, err
		}
	}
	var res *groupranking.SessionResult
	err = stage("api.wait", &out.wait, func() (err error) {
		res, err = clients[0].WaitResult(ctx, id, pollInterval)
		return err
	})
	out.latency = time.Since(start)
	if err != nil {
		return out, err
	}
	if res.State != groupranking.SessionDone {
		return out, fmt.Errorf("daemon 0: session ended %s: %s", res.State, res.Error)
	}
	out.bytes, out.rounds = res.BytesOnWire, res.Rounds
	subs := make([]submission, len(res.Submissions))
	for i, sub := range res.Submissions {
		subs[i] = submission{sub.Participant, sub.ClaimedRank, sub.Values}
	}
	ranks := make([]int, s.spec.n)
	for j := 1; j < len(clients); j++ {
		var discard time.Duration
		err := stage(fmt.Sprintf("api.result.%d", j), &discard, func() error {
			// The initiator is done, so every participant has sent its
			// last message; its daemon may still be closing the session.
			res, err := clients[j].WaitResult(ctx, id, pollInterval)
			if err != nil {
				return err
			}
			if res.State != groupranking.SessionDone {
				return fmt.Errorf("session ended %s: %s", res.State, res.Error)
			}
			ranks[j-1] = res.Rank
			out.bytes += res.BytesOnWire
			out.rounds = max(out.rounds, res.Rounds)
			return nil
		})
		if err != nil {
			return out, err
		}
	}
	return out, in.verify(ranks, subs)
}
