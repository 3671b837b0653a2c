package service

import (
	"context"
	"errors"
	"time"

	"groupranking/internal/api"
	"groupranking/internal/core"
	"groupranking/internal/journal"
	"groupranking/internal/transport"
)

// The per-session runner: one goroutine per hosted session executing
// this daemon's role through core.RunParty — the runner under Rank and
// rankparty — over a mux'd session net, so a seeded service session
// reproduces the in-process groupranking.Rank run byte for byte.

// spawn launches the session runner; the caller has already marked the
// session started (and stored its role input) under the session lock.
func (d *Daemon) spawn(s *session) {
	d.wg.Add(1)
	go d.runSession(s)
}

// runSession executes one session end to end and records its terminal
// state.
func (d *Daemon) runSession(s *session) {
	defer d.wg.Done()
	start := time.Now()
	ctx, cancel := context.WithTimeout(d.ctx, s.timeout)
	defer cancel()
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()

	// The seed is the cross-process rule's (journal.OpenSession). Durable
	// mode joins the mux recovering over the session's journal (replayed
	// receives, suppressed re-sends, answered resume requests); the file
	// closes with the runner, the in-memory transcript serves
	// retransmissions until the janitor purges the session.
	var dir string
	if d.cfg.Recovery != nil {
		dir = d.cfg.Recovery.Dir
	}
	j, seed, err := journal.OpenSession(dir, s.id, d.cfg.Me, s.spec.Seed, d.cfg.Telemetry)
	var snet *transport.MuxSession
	if err == nil && j != nil {
		defer j.Close()
		snet, err = d.mux.OpenRecovering(s.id, s.timeout, j)
	} else if err == nil {
		snet, err = d.mux.Open(s.id, s.timeout)
	}
	if err != nil {
		d.finish(s, nil, err, start)
		return
	}
	defer snet.Close()
	var net transport.Net = snet
	if d.FaultPlanner != nil {
		if plan := d.FaultPlanner(s.id, s.spec); plan != nil {
			net = transport.NewFaultNet(net, *plan)
		}
	}
	role := core.Role{Me: d.cfg.Me, Questionnaire: s.q, Criterion: s.spec.Criterion, Profile: s.profile}
	out, err := core.RunParty(ctx, s.params, role, seed, net, func(string) {
		s.mu.Lock()
		if !api.Terminal(s.state) {
			s.state = api.StateRunning
		}
		s.mu.Unlock()
	})
	if err != nil {
		d.finish(s, nil, err, start)
		return
	}
	stats := snet.Stats()
	res := &api.ResultResponse{ID: s.id, TraceID: out.TraceID, Rank: out.Participant.Rank, Suspicious: out.Suspicious,
		BytesOnWire: stats.TotalBytes(), Rounds: stats.DistinctRounds}
	for _, sub := range out.Submissions {
		res.Submissions = append(res.Submissions, api.Submission{
			Participant: sub.Participant,
			ClaimedRank: sub.ClaimedRank,
			Values:      sub.Profile.Values,
			Gain:        sub.Gain.String(),
		})
	}
	d.finish(s, res, nil, start)
}

// finish records a session's terminal state exactly once, fans an
// abort out to the peer daemons when this daemon failed first, and
// updates the outcome metrics. In durable mode the outcome is also
// written to the session table — EXCEPT when the abort is only this
// daemon shutting down (drain parked the session or Close cancelled
// it): the table then still holds the session non-terminal, so the
// next life re-adopts and resumes it instead of serving a spurious
// abort.
func (d *Daemon) finish(s *session, res *api.ResultResponse, err error, start time.Time) {
	elapsed := time.Since(start).Milliseconds()
	s.mu.Lock()
	if api.Terminal(s.state) {
		s.mu.Unlock()
		return
	}
	if err == nil {
		s.state = api.StateDone
		res.State = api.StateDone
		res.ElapsedMS = elapsed
		s.result = res
	} else {
		s.state = api.StateAborted
		reason := err.Error()
		// A runner cancelled by a peer abort (or the janitor) dies with
		// a bare context error; the stored reason says why.
		if s.abortReason != "" && errors.Is(err, context.Canceled) {
			reason = s.abortReason
		}
		s.result = &api.ResultResponse{ID: s.id, State: api.StateAborted, Error: reason, ElapsedMS: elapsed}
	}
	terminal := s.result
	s.doneAt = time.Now()
	broadcast := err != nil && s.abortReason == "" && d.ctx.Err() == nil
	parked := err != nil && d.ctx.Err() != nil
	s.mu.Unlock()
	if broadcast {
		d.broadcastAbort(s.id, err)
	}
	if d.store != nil && !parked {
		_ = d.store.logDone(s.id, terminal)
	}
	d.sessionEnded(err == nil)
}
