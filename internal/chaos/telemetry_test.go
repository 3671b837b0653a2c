package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/leakcheck"
	"groupranking/internal/obsv"
	"groupranking/internal/telemetry"
	"groupranking/internal/tracemerge"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// httpGet fetches one admin endpoint and returns status plus body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// loadTrace writes obs's JSONL trace to a file and reads it back the way
// ranktrace does.
func loadTrace(t *testing.T, obs *obsv.Registry) ([]tracemerge.Span, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	traces, err := tracemerge.LoadFiles([]string{path})
	if err != nil {
		return nil, err
	}
	return traces[0], nil
}

// TestAbortHealthzAndPartialTrace is the abort-path observability
// contract over a real recovering TCP mesh: when a party dies
// mid-protocol, the survivors' /healthz must flip non-200 naming the
// dead peer BEFORE the blame abort fires (the grace window is exactly
// when an operator can still act), the mid-run trace must already
// carry the open span at the failure point, and after the abort the
// peer is reported dead.
func TestAbortHealthzAndPartialTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test skipped in short mode")
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
	rng := fixedbig.NewDRBG("chaos-telemetry-abort")
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed    = "chaos-telemetry-abort"
		victim  = 2
		timeout = 30 * time.Second
		grace   = 2 * time.Second
	)
	nParties := params.N + 1
	addrs, err := transport.FreeLoopbackAddrs(nParties)
	if err != nil {
		t.Fatal(err)
	}

	// Party 0 runs with an observer whose metric store feeds its mux,
	// exactly as `rankparty -admin -trace` wires them.
	obs := obsv.NewRegistry()
	tel := obs.Metrics()

	fabrics := make([]*transport.TCPFabric, nParties)
	ferrs := make([]error, nParties)
	journals := sessionJournals(t, "telemetry-abort", nParties)
	var fwg sync.WaitGroup
	for me := 0; me < nParties; me++ {
		me := me
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			opts := transport.MuxOptions{Recovery: &transport.MuxRecovery{Epoch: 1, Grace: grace}}
			if me == 0 {
				opts.Telemetry = tel
			}
			fabrics[me], ferrs[me] = transport.OpenTCPFabric(addrs, me, timeout, opts, "telemetry-abort", journals[me])
		}()
	}
	fwg.Wait()
	for me, err := range ferrs {
		if err != nil {
			t.Fatalf("party %d fabric: %v", me, err)
		}
	}
	defer func() {
		for _, f := range fabrics {
			f.Close()
		}
	}()
	tel.SetHealthSource(fabrics[0])
	srv := httptest.NewServer(telemetry.AdminMux(tel))
	defer srv.Close()

	if code, body := httpGet(t, srv.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz with the mesh fully up = %d %q, want 200", code, body)
	}

	roleErrs := make([]error, nParties)
	p0done := make(chan struct{})
	var wg sync.WaitGroup
	for me := 0; me < nParties; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var net transport.Net = fabrics[me]
			if me == victim {
				net = &killNet{Net: net, after: 5} // dies in the gain phase
			}
			role := core.Role{Me: me, Questionnaire: q}
			if me == 0 {
				defer close(p0done)
				ctx = obsv.WithRegistry(ctx, obs)
				role.Criterion = crit
			} else {
				role.Profile = profiles[me-1]
			}
			// A party whose role fails behaves like the real deployment: the
			// process exits and its sockets die with it, so the abort
			// cascades through peers' grace windows instead of leaving them
			// to run out the full protocol timeout.
			defer func() {
				if roleErrs[me] != nil {
					fabrics[me].Close()
				}
			}()
			_, roleErrs[me] = core.RunParty(ctx, params, role, seed, net, func(traceID string) {
				if me == 0 {
					obs.SetTraceID(traceID)
				}
			})
		}()
	}

	// The victim dies ~immediately; survivors sit in the grace window
	// for 2s before blaming. /healthz must flip inside that window.
	var flippedBody string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := httpGet(t, srv.URL+"/healthz")
		if code != 200 && strings.Contains(body, fmt.Sprintf(`"peer":%d`, victim)) &&
			(strings.Contains(body, telemetry.StateReconnecting) || strings.Contains(body, telemetry.StateDead)) {
			flippedBody = body
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if flippedBody == "" {
		t.Fatal("healthz never flipped non-200 naming the dead peer")
	}
	select {
	case <-p0done:
		t.Error("healthz flipped only after the abort already fired; operators need the signal during the grace window")
	default:
	}

	// The mid-run trace must already carry the failure point: party 0 is
	// blocked in a phase right now, so its current span exports open.
	midSpans, err := loadTrace(t, obs)
	if err != nil {
		t.Fatalf("mid-run trace is not valid JSONL: %v", err)
	}
	foundOpen := false
	for _, s := range midSpans {
		if s.Party == 0 && s.Open {
			foundOpen = true
			if s.TraceID == "" {
				t.Error("open span carries no trace ID")
			}
		}
	}
	if !foundOpen {
		t.Errorf("mid-run trace has no open span for the blocked party; spans: %+v", midSpans)
	}

	wg.Wait()

	if !errors.Is(roleErrs[victim], errKilled) {
		t.Errorf("victim's error = %v, want the scheduled kill", roleErrs[victim])
	}
	// Every survivor must end in a typed abort; the ones blocked on the
	// victim directly must blame it (peers blocked on a survivor that
	// already aborted and exited legitimately blame that survivor — the
	// cascade names the proximate dead peer, healthz named the first).
	sawVictimBlame := false
	for me, err := range roleErrs {
		if me == victim {
			continue
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("survivor %d: no typed abort, got %v", me, err)
		}
		if abort.Party == victim {
			sawVictimBlame = true
		}
	}
	if !sawVictimBlame {
		t.Error("no survivor blamed the party that actually died")
	}

	// After the blame window the peer is dead, and the partial trace
	// still names the aborted phase (the existing contract).
	code, body := httpGet(t, srv.URL+"/healthz")
	if code == 200 || !strings.Contains(body, telemetry.StateDead) {
		t.Errorf("healthz after the abort = %d %q, want non-200 with a dead peer", code, body)
	}
	var abort *transport.AbortError
	errors.As(roleErrs[0], &abort)
	phases := make(map[string]bool)
	for _, sp := range obs.Spans() {
		phases[sp.Phase] = true
	}
	if abort != nil && !phases[abort.Phase] {
		t.Errorf("abort names phase %q but the final trace only has %v", abort.Phase, phases)
	}

	// The metrics endpoint serves the transport's and the protocol's
	// counters, from the one store, to the end.
	code, body = httpGet(t, srv.URL+"/metrics")
	if code != 200 || !strings.Contains(body, "mux_session_msgs_total") ||
		!strings.Contains(body, "grouprank_ops_total") {
		t.Errorf("metrics after the abort = %d; missing transport or protocol counters", code)
	}
}

// TestAdminServesObserverCounts is the one-store contract after a
// seeded in-process run with an observer (core.RunCtx, what Rank runs):
// the grouprank_ops_total sample /metrics serves over the observer's
// store equals PartyTotal for every party and op, and each party's
// spans plus its catch-all add up to that total in the JSONL trace,
// with no span counting below zero.
func TestAdminServesObserverCounts(t *testing.T) {
	params := core.Params{N: 3, M: 2, T: 1, D1: 4, D2: 3, H: 4, K: 2, Group: chaosGroup(t)}
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG("chaos-admin-counts")
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewRegistry()
	in := core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}
	if _, _, err := core.RunCtx(obsv.WithRegistry(context.Background(), obs), params, in, "chaos-admin-counts", nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.AdminMux(obs.Metrics()))
	defer srv.Close()
	code, body := httpGet(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	served := make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, "grouprank_ops_total{") {
			served[series] = value
		}
	}

	spans, err := loadTrace(t, obs)
	if err != nil {
		t.Fatal(err)
	}
	spanned := make(map[string]int64) // "party op" -> sum over the party's spans and catch-all
	for _, s := range spans {
		for op, c := range s.Counts {
			if c < 0 {
				t.Errorf("party %d span %q counts %d %s", s.Party, s.Phase, c, op)
			}
			spanned[fmt.Sprintf("%d %s", s.Party, op)] += c
		}
	}

	series := 0
	for party := 0; party <= params.N; party++ {
		for op := obsv.Op(0); op.String() != "unknown"; op++ {
			series++
			want := obs.PartyTotal(party, op)
			key := fmt.Sprintf("grouprank_ops_total{party=\"%d\",op=%q}", party, op)
			if got := served[key]; got != fmt.Sprint(want) {
				t.Errorf("/metrics serves %s %q, PartyTotal is %d", key, got, want)
			}
			if got := spanned[fmt.Sprintf("%d %s", party, op)]; got != want {
				t.Errorf("party %d's spans count %d %s, PartyTotal is %d", party, got, op, want)
			}
		}
	}
	if len(served) != series {
		t.Errorf("/metrics serves %d grouprank_ops_total series, want %d", len(served), series)
	}
	if obs.PartyTotal(1, obsv.OpGroupExp) == 0 || obs.PartyTotal(0, obsv.OpMsgSent) == 0 {
		t.Error("the run counted no exponentiations or messages")
	}
}
