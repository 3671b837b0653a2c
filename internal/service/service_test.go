package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking"
	"groupranking/internal/api"
	"groupranking/internal/leakcheck"
	"groupranking/internal/service"
	"groupranking/internal/telemetry"
	"groupranking/internal/transport"
)

// The service-level suite: a real in-process daemon mesh (4 daemons
// over loopback TCP, httptest API servers) driven through the public
// groupranking.Client, checking the tentpole properties — concurrent
// sessions share one mux'd connection per peer pair, a faulted
// session's abort is isolated from its siblings, seeded sessions
// reproduce the in-process Rank run exactly, and daemon shutdown leaks
// nothing.

// testMesh is one running daemon mesh plus its API clients.
type testMesh struct {
	daemons []*service.Daemon
	servers []*httptest.Server
	clients []*groupranking.Client
	tel     *telemetry.Registry // daemon 0's registry, as rankd resolves it
}

// startMesh boots a daemon mesh with the given config tweak applied
// per slot. Daemon 0 always gets a telemetry registry so tests can
// read the mux link counters.
func startMesh(t *testing.T, size int, mutate func(i int, cfg *service.Config)) *testMesh {
	t.Helper()
	addrs, err := transport.FreeLoopbackAddrs(size)
	if err != nil {
		t.Fatal(err)
	}
	m := &testMesh{
		daemons: make([]*service.Daemon, size),
		servers: make([]*httptest.Server, size),
		clients: make([]*groupranking.Client, size),
		tel:     groupranking.NewObserver().Metrics(),
	}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for i := 0; i < size; i++ {
		cfg := service.Config{
			Addrs: addrs,
			Me:    i,
			Runtime: groupranking.Runtime{
				Timeout: 30 * time.Second,
			},
		}
		if i == 0 {
			cfg.Telemetry = m.tel
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		wg.Add(1)
		go func(i int, cfg service.Config) {
			defer wg.Done()
			m.daemons[i], errs[i] = service.NewDaemon(cfg)
		}(i, cfg)
	}
	wg.Wait()
	t.Cleanup(m.close)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	hc := &http.Client{}
	t.Cleanup(hc.CloseIdleConnections)
	for i, d := range m.daemons {
		m.servers[i] = httptest.NewServer(d.Handler())
		m.clients[i] = groupranking.NewClient(m.servers[i].URL, hc)
	}
	return m
}

// close shuts the mesh down (idempotent; registered as cleanup).
func (m *testMesh) close() {
	for _, srv := range m.servers {
		if srv != nil {
			srv.Close()
		}
	}
	for _, d := range m.daemons {
		if d != nil {
			d.Close()
		}
	}
}

// testSpec is the suite's standard 3-participant session.
func testSpec(seed string) groupranking.SessionSpec {
	return groupranking.SessionSpec{
		Attributes: []groupranking.Attribute{
			{Name: "age", Kind: groupranking.EqualTo},
			{Name: "activity", Kind: groupranking.GreaterThan},
		},
		Criterion: groupranking.Criterion{Values: []int64{30, 0}, Weights: []int64{2, 1}},
		K:         2, D1: 7, D2: 3, H: 5,
		GroupName: "toy-dl-256",
		Seed:      seed,
	}
}

// testProfiles are the suite's standard participant inputs.
var testProfiles = []groupranking.Profile{
	{Values: []int64{30, 50}},
	{Values: []int64{25, 60}},
	{Values: []int64{45, 90}},
}

// driveSession runs one full session through the public API and
// returns the initiator-side result plus each participant daemon's
// own view.
func driveSession(ctx context.Context, m *testMesh, spec groupranking.SessionSpec) (*groupranking.SessionResult, []*groupranking.SessionResult, error) {
	id, err := m.clients[0].CreateSession(ctx, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("create: %w", err)
	}
	for j := 1; j < len(m.clients); j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			return nil, nil, fmt.Errorf("submit to daemon %d: %w", j, err)
		}
	}
	res, err := m.clients[0].WaitResult(ctx, id, 5*time.Millisecond)
	if err != nil {
		return nil, nil, fmt.Errorf("initiator result: %w", err)
	}
	views := make([]*groupranking.SessionResult, len(m.clients)-1)
	for j := 1; j < len(m.clients); j++ {
		views[j-1], err = m.clients[j].WaitResult(ctx, id, 5*time.Millisecond)
		if err != nil {
			return nil, nil, fmt.Errorf("participant %d result: %w", j, err)
		}
	}
	return res, views, nil
}

// inProcessRank runs the same session with the in-process harness.
func inProcessRank(t *testing.T, spec groupranking.SessionSpec) *groupranking.Result {
	t.Helper()
	q, err := groupranking.NewQuestionnaire([]groupranking.Attribute{
		{Name: "age", Kind: groupranking.EqualTo},
		{Name: "activity", Kind: groupranking.GreaterThan},
	})
	if err != nil {
		t.Fatal(err)
	}
	crit := groupranking.Criterion{Values: spec.Criterion.Values, Weights: spec.Criterion.Weights}
	res, err := groupranking.Rank(context.Background(), q, crit, testProfiles, groupranking.Options{
		K: spec.K, D1: spec.D1, D2: spec.D2, H: spec.H,
		GroupName: spec.GroupName,
		Seed:      spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesRank checks a service session's outcome against the
// in-process run with the same seed: identical submissions (claimed
// rank, participant, profile, recomputed gain) and identical
// per-participant ranks.
func assertMatchesRank(t *testing.T, res *groupranking.SessionResult, views []*groupranking.SessionResult, want *groupranking.Result) {
	t.Helper()
	if len(res.Submissions) != len(want.Submissions) {
		t.Fatalf("service run got %d submissions, in-process run %d", len(res.Submissions), len(want.Submissions))
	}
	for i, got := range res.Submissions {
		exp := want.Submissions[i]
		if got.Participant != exp.Participant || got.ClaimedRank != exp.ClaimedRank || got.Gain != exp.Gain.String() {
			t.Errorf("submission %d: got participant %d rank %d gain %s, want participant %d rank %d gain %v",
				i, got.Participant, got.ClaimedRank, got.Gain, exp.Participant, exp.ClaimedRank, exp.Gain)
		}
	}
	if len(res.Suspicious) != len(want.Suspicious) {
		t.Errorf("suspicious lists differ: %v vs %v", res.Suspicious, want.Suspicious)
	}
	for j, view := range views {
		if view.State != groupranking.SessionDone {
			t.Fatalf("participant %d view ended %s: %s", j+1, view.State, view.Error)
		}
		if view.Rank != want.Ranks[j] {
			t.Errorf("participant %d rank %d, in-process run says %d", j+1, view.Rank, want.Ranks[j])
		}
	}
}

// linkConnects reads mux_link_connects_total per peer from daemon 0's
// registry.
func linkConnects(t *testing.T, m *testMesh) map[string]string {
	t.Helper()
	var sb strings.Builder
	if err := m.tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `mux_link_connects_total{peer="`); ok {
			peer, val, _ := strings.Cut(rest, `"} `)
			out[peer] = val
		}
	}
	return out
}

// TestServiceConcurrentIsolation is the tentpole acceptance test: two
// concurrent sessions share the mux'd mesh; one of them is killed by
// an injected crash and must abort cleanly at every daemon while its
// sibling completes byte-identically to the solo in-process run — and
// the whole episode uses exactly one connection per peer pair.
func TestServiceConcurrentIsolation(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, func(i int, cfg *service.Config) {})
	// Every daemon crashes session "iso-doomed"'s party 2 from round 6
	// on; the plan is keyed off the seed so no daemon needs to learn
	// the randomly drawn session ID first.
	for _, d := range m.daemons {
		d.FaultPlanner = func(_ string, spec api.SessionSpec) *transport.FaultPlan {
			if spec.Seed != "iso-doomed" {
				return nil
			}
			return &transport.FaultPlan{Rules: []transport.FaultRule{transport.CrashAt(2, 6)}}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type outcome struct {
		res   *groupranking.SessionResult
		views []*groupranking.SessionResult
		err   error
	}
	results := make(map[string]*outcome)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, seed := range []string{"iso-survivor", "iso-doomed"} {
		wg.Add(1)
		go func(seed string) {
			defer wg.Done()
			res, views, err := driveSession(ctx, m, testSpec(seed))
			mu.Lock()
			results[seed] = &outcome{res, views, err}
			mu.Unlock()
		}(seed)
	}
	wg.Wait()

	doomed := results["iso-doomed"]
	if doomed.err != nil {
		t.Fatalf("doomed session must still be pollable end to end: %v", doomed.err)
	}
	if doomed.res.State != groupranking.SessionAborted {
		t.Fatalf("doomed session ended %q, want aborted (error %q)", doomed.res.State, doomed.res.Error)
	}
	if doomed.res.Error == "" {
		t.Error("doomed session aborted without a cause")
	}
	for j, view := range doomed.views {
		if view.State != groupranking.SessionAborted {
			t.Errorf("doomed session at participant daemon %d ended %q, want aborted", j+1, view.State)
		}
	}

	survivor := results["iso-survivor"]
	if survivor.err != nil {
		t.Fatalf("survivor session: %v", survivor.err)
	}
	if survivor.res.State != groupranking.SessionDone {
		t.Fatalf("survivor session ended %q: %s", survivor.res.State, survivor.res.Error)
	}
	assertMatchesRank(t, survivor.res, survivor.views, inProcessRank(t, testSpec("iso-survivor")))

	connects := linkConnects(t, m)
	if len(connects) != 3 {
		t.Fatalf("mux_link_connects_total covers %d peers, want 3:\n%v", len(connects), connects)
	}
	for peer, v := range connects {
		if v != "1" {
			t.Errorf("daemon 0 dialed peer %s %s times; both sessions must share one connection per pair", peer, v)
		}
	}
}

// TestServiceSeededSessionMatchesRank checks the plain path: one
// seeded service session reproduces groupranking.Rank exactly.
func TestServiceSeededSessionMatchesRank(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, views, err := driveSession(ctx, m, testSpec("service-vs-rank"))
	if err != nil {
		t.Fatal(err)
	}
	if res.State != groupranking.SessionDone {
		t.Fatalf("session ended %q: %s", res.State, res.Error)
	}
	assertMatchesRank(t, res, views, inProcessRank(t, testSpec("service-vs-rank")))
	if res.TraceID == "" || res.BytesOnWire <= 0 || res.Rounds <= 0 {
		t.Errorf("result is missing transport facts: trace %q, %d bytes, %d rounds", res.TraceID, res.BytesOnWire, res.Rounds)
	}
}

// TestServiceUnseededTraceIDsDiffer: every unseeded session runs on a
// seed drawn for it, so two of them report distinct trace IDs — not the
// one constant an empty seed would derive on every deployment — and
// every daemon of a session reports the same one.
func TestServiceUnseededTraceIDsDiffer(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var traceIDs []string
	for range 2 {
		res, views, err := driveSession(ctx, m, testSpec(""))
		if err != nil {
			t.Fatal(err)
		}
		if res.State != groupranking.SessionDone || res.TraceID == "" {
			t.Fatalf("session ended %q with trace id %q: %s", res.State, res.TraceID, res.Error)
		}
		for j, view := range views {
			if view.TraceID != res.TraceID {
				t.Errorf("participant daemon %d reports trace id %q, the initiator daemon %q", j+1, view.TraceID, res.TraceID)
			}
		}
		traceIDs = append(traceIDs, res.TraceID)
	}
	if traceIDs[0] == traceIDs[1] {
		t.Fatalf("two unseeded sessions share trace id %s", traceIDs[0])
	}
}

// TestServiceAdmissionCap checks the admission control: a daemon at
// its cap refuses creation with the typed admission_full error, and
// admits again once the blocking session finishes.
func TestServiceAdmissionCap(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, func(i int, cfg *service.Config) {
		cfg.MaxSessions = 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// First session admitted but left profile-less: it pins the cap.
	id, err := m.clients[0].CreateSession(ctx, testSpec("cap-pinned"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.clients[0].CreateSession(ctx, testSpec("cap-rejected"))
	if !groupranking.IsAdmissionFull(err) {
		t.Fatalf("create over the cap returned %v, want the admission_full rejection", err)
	}
	// Finish the pinned session; the cap frees up.
	for j := 1; j < len(m.clients); j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			t.Fatalf("submit to daemon %d: %v", j, err)
		}
	}
	if res, err := m.clients[0].WaitResult(ctx, id, 5*time.Millisecond); err != nil || res.State != groupranking.SessionDone {
		t.Fatalf("pinned session: %v / %+v", err, res)
	}
	if _, err := m.clients[0].CreateSession(ctx, testSpec("cap-after")); err != nil {
		t.Fatalf("create after the cap freed up: %v", err)
	}
}

// TestServiceResultTTL checks retention: a finished session's result
// stays pollable until the TTL, then 404s.
func TestServiceResultTTL(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, func(i int, cfg *service.Config) {
		cfg.ResultTTL = 200 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, _, err := driveSession(ctx, m, testSpec("ttl"))
	if err != nil {
		t.Fatal(err)
	}
	if res.State != groupranking.SessionDone {
		t.Fatalf("session ended %q: %s", res.State, res.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := m.clients[0].Result(ctx, res.ID)
		var apiErr *groupranking.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			return // purged
		}
		if time.Now().After(deadline) {
			t.Fatalf("result still pollable long after the 200ms TTL (last: %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceWrongRoleAndValidation checks the typed HTTP error
// surface: misdirected requests and malformed specs fail loudly with
// stable codes instead of hanging a session.
func TestServiceWrongRoleAndValidation(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var apiErr *groupranking.APIError
	if _, err := m.clients[1].CreateSession(ctx, testSpec("wrong-role")); !errors.As(err, &apiErr) || apiErr.Code != api.CodeWrongRole {
		t.Errorf("create at a participant daemon returned %v, want %s", err, api.CodeWrongRole)
	}
	if err := m.clients[0].Submit(ctx, "whatever", []int64{1, 2}); !errors.As(err, &apiErr) || apiErr.Code != api.CodeWrongRole {
		t.Errorf("submit at the initiator daemon returned %v, want %s", err, api.CodeWrongRole)
	}
	// A Go client cannot encode a bad kind, so an unknown or missing
	// one is posted raw: both are refused as a bad request.
	for _, attr := range []string{`{"name":"activity","kind":"between"}`, `{"name":"activity"}`} {
		resp, err := http.Post(m.servers[0].URL+api.PathSessions, "application/json", strings.NewReader(
			`{"attributes":[{"name":"age","kind":"eq"},`+attr+`],`+
				`"criterion":{"values":[30,0],"weights":[2,1]},"group":"toy-dl-256"}`))
		if err != nil {
			t.Fatal(err)
		}
		var body api.Error
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || body.Code != api.CodeBadRequest {
			t.Errorf("attribute %s answered %d %+v (%v), want %d %s", attr, resp.StatusCode, body, err, http.StatusBadRequest, api.CodeBadRequest)
		}
	}
	short := testSpec("bad-criterion")
	short.Criterion.Values = []int64{30}
	if _, err := m.clients[0].CreateSession(ctx, short); !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Errorf("short criterion returned %v, want %s", err, api.CodeBadRequest)
	}
	if _, err := m.clients[0].Result(ctx, "no-such-session"); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Errorf("unknown session result returned %v, want %s", err, api.CodeNotFound)
	}
	// The strict decoder refuses any field outside the contract, so no
	// client can switch the key-knowledge proofs off.
	resp, err := http.Post(m.servers[0].URL+api.PathSessions, "application/json", strings.NewReader(
		`{"attributes":[{"name":"age","kind":"eq"},{"name":"activity","kind":"gt"}],`+
			`"criterion":{"values":[30,0],"weights":[2,1]},"group":"toy-dl-256","skip_proofs":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("spec with skip_proofs answered %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	// The baseline has one spelling: a name copied from a trace, the
	// command line or the bench snapshot is admitted.
	ss := testSpec("secret-sharing-spelling")
	ss.Sorter = "secret-sharing"
	if res, _, err := driveSession(ctx, m, ss); err != nil || res.State != groupranking.SessionDone {
		t.Errorf("secret-sharing session: %v / %+v", err, res)
	}
	// A sane session still works on the same mesh afterwards.
	res, _, err := driveSession(ctx, m, testSpec("still-works"))
	if err != nil || res.State != groupranking.SessionDone {
		t.Fatalf("session after the error volley: %v / %+v", err, res)
	}
}
