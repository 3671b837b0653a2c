package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking"
	"groupranking/internal/journal"
	"groupranking/internal/leakcheck"
	"groupranking/internal/service"
	"groupranking/internal/telemetry"
	"groupranking/internal/transport"
)

// The durable-daemon suite: a real 4-daemon mesh running in recovery
// mode (per-daemon journal dirs), exercising the tentpole properties —
// a daemon crash mid-session recovers to the byte-identical outcome, a
// terminal result survives a restart, creation is idempotent across
// restarts, and a draining daemon sheds typed, retryable rejections.

// durableMesh is a restartable daemon mesh: unlike testMesh it keeps
// each slot's config so a test can kill one daemon and boot its next
// life with the same flags and journal dir.
type durableMesh struct {
	cfgs    []service.Config
	daemons []*service.Daemon
	servers []*httptest.Server
	clients []*groupranking.Client
	hc      *http.Client
	tel     *groupranking.Telemetry // daemon 0's registry
}

// startDurable boots a recovery-mode mesh, one journal dir per daemon.
func startDurable(t *testing.T, size int, mutate func(i int, cfg *service.Config)) *durableMesh {
	t.Helper()
	addrs, err := transport.FreeLoopbackAddrs(size)
	if err != nil {
		t.Fatal(err)
	}
	m := &durableMesh{
		cfgs:    make([]service.Config, size),
		daemons: make([]*service.Daemon, size),
		servers: make([]*httptest.Server, size),
		clients: make([]*groupranking.Client, size),
		hc:      &http.Client{},
		tel:     groupranking.NewTelemetry(),
	}
	t.Cleanup(m.hc.CloseIdleConnections)
	for i := 0; i < size; i++ {
		m.cfgs[i] = service.Config{
			Addrs:    addrs,
			Me:       i,
			Runtime:  groupranking.Runtime{Timeout: 30 * time.Second},
			Recovery: &groupranking.RecoveryOptions{Dir: t.TempDir(), Grace: 15 * time.Second},
		}
		if i == 0 {
			m.cfgs[i].Telemetry = m.tel
		}
		if mutate != nil {
			mutate(i, &m.cfgs[i])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.daemons[i], errs[i] = service.NewDaemon(m.cfgs[i])
		}(i)
	}
	wg.Wait()
	t.Cleanup(m.close)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("durable daemon %d: %v", i, err)
		}
	}
	for i := range m.daemons {
		m.attach(i)
	}
	return m
}

// attach (re)binds slot i's HTTP server and client to its daemon.
func (m *durableMesh) attach(i int) {
	m.servers[i] = httptest.NewServer(m.daemons[i].Handler())
	m.clients[i] = groupranking.NewClient(m.servers[i].URL, m.hc)
}

// crash kills slot i's daemon (its sessions are parked, not aborted:
// Close cancels them without recording a terminal state in the table).
func (m *durableMesh) crash(i int) {
	m.servers[i].Close()
	m.daemons[i].Close()
}

// restart boots slot i's next life from the same config and journals.
func (m *durableMesh) restart(t *testing.T, i int) {
	t.Helper()
	d, err := service.NewDaemon(m.cfgs[i])
	if err != nil {
		t.Fatalf("restarting daemon %d: %v", i, err)
	}
	m.daemons[i] = d
	m.attach(i)
}

func (m *durableMesh) close() {
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

// TestServiceRestartRecovers is the service-tier tentpole: a
// participant daemon dies mid-session and its next life re-adopts the
// session from its journals and resumes it to the byte-identical
// outcome; afterwards the initiator daemon is restarted too and must
// still serve the terminal result and honor the creation idempotency
// key — both straight from the durable session table.
func TestServiceRestartRecovers(t *testing.T) {
	leakcheck.Check(t)
	m := startDurable(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := testSpec("durable-restart")
	spec.IdempotencyKey = "restart-key-1"
	id, err := m.clients[0].CreateSession(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 4; j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			t.Fatalf("submit to daemon %d: %v", j, err)
		}
	}
	// Crash participant daemon 1 immediately: the session is mid-flight
	// (or, in the fastest runs, just finished — either way the next
	// life must converge on the same outcome).
	m.crash(1)
	m.restart(t, 1)

	res, err := m.clients[0].WaitResult(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("initiator result after restart: %v", err)
	}
	if res.State != groupranking.SessionDone {
		t.Fatalf("session ended %q after the restart: %s", res.State, res.Error)
	}
	views := make([]*groupranking.SessionResult, 3)
	for j := 1; j < 4; j++ {
		if views[j-1], err = m.clients[j].WaitResult(ctx, id, 5*time.Millisecond); err != nil {
			t.Fatalf("participant %d result: %v", j, err)
		}
	}
	assertMatchesRank(t, res, views, inProcessRank(t, testSpec("durable-restart")))

	// The terminal result must survive a restart of the daemon serving
	// it: kill the initiator daemon AFTER completion and poll its next
	// life.
	m.crash(0)
	m.restart(t, 0)
	res2, err := m.clients[0].Result(ctx, id)
	if err != nil {
		t.Fatalf("result across initiator restart: %v", err)
	}
	if res2.State != groupranking.SessionDone || len(res2.Submissions) != len(res.Submissions) {
		t.Fatalf("restarted daemon serves %q with %d submissions, first life said %q with %d",
			res2.State, len(res2.Submissions), res.State, len(res.Submissions))
	}
	// And the idempotency key must still be bound: a retried create
	// returns the existing session instead of a duplicate.
	id2, err := m.clients[0].CreateSession(ctx, spec)
	if err != nil {
		t.Fatalf("idempotent create across restart: %v", err)
	}
	if id2 != id {
		t.Fatalf("idempotency key bound a new session %s across the restart, want %s", id2, id)
	}
}

// TestServiceRestartPendingSubmit: a session whose participant never
// got its profile before the daemon died is re-adopted pending, and
// the submission after the restart completes it normally. Also proves
// each daemon's own journaled seed (empty client seed in durable mode)
// survives into the next life.
func TestServiceRestartPendingSubmit(t *testing.T) {
	leakcheck.Check(t)
	m := startDurable(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := testSpec("") // each daemon draws and journals its own seed
	id, err := m.clients[0].CreateSession(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Profiles for daemons 2 and 3 only; daemon 1 dies still pending.
	for j := 2; j < 4; j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			t.Fatalf("submit to daemon %d: %v", j, err)
		}
	}
	m.crash(1)
	m.restart(t, 1)
	if err := m.clients[1].Submit(ctx, id, testProfiles[0].Values); err != nil {
		t.Fatalf("submit to daemon 1's next life: %v", err)
	}
	res, err := m.clients[0].WaitResult(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != groupranking.SessionDone {
		t.Fatalf("session ended %q: %s", res.State, res.Error)
	}
}

// TestServiceDurableUnseededSeedsStayLocal: a durable session created
// without a seed runs on a seed each daemon resolves for itself. No
// daemon's session table — and so no announced spec, which the
// participant daemons' tables hold verbatim — carries a seed, and the
// four session journals hold pairwise distinct ones: the initiator
// daemon cannot re-derive a participant's key share, blinding or
// permutation.
func TestServiceDurableUnseededSeedsStayLocal(t *testing.T) {
	leakcheck.Check(t)
	m := startDurable(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	id, err := m.clients[0].CreateSession(ctx, testSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 4; j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			t.Fatalf("submit to daemon %d: %v", j, err)
		}
	}
	for i, c := range m.clients {
		if res, err := c.WaitResult(ctx, id, 5*time.Millisecond); err != nil || res.State != groupranking.SessionDone {
			t.Fatalf("daemon %d's view of the session: %v / %+v", i, err, res)
		}
	}
	table := journal.Format{Magic: "GRTB1\n", Name: "session table"}
	owner := make(map[string]int)
	for i, cfg := range m.cfgs {
		path := filepath.Join(cfg.Recovery.Dir, fmt.Sprintf("sessions-p%d.table", i))
		err := journal.ScanLog(path, table, func(body []byte) error {
			var rec struct {
				Spec *groupranking.SessionSpec `json:"spec"`
			}
			if err := json.Unmarshal(body, &rec); err != nil {
				return err
			}
			if rec.Spec != nil && rec.Spec.Seed != "" {
				t.Errorf("daemon %d's session table holds seed %q for an unseeded session", i, rec.Spec.Seed)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scanning daemon %d's table: %v", i, err)
		}
		recs, err := journal.Scan(journal.SessionPath(cfg.Recovery.Dir, id, i))
		if err != nil {
			t.Fatalf("scanning daemon %d's session journal: %v", i, err)
		}
		seed := ""
		for _, rec := range recs {
			if rec.Kind == journal.KindSeed {
				seed = string(rec.Data)
			}
		}
		if seed == "" {
			t.Fatalf("daemon %d journaled no seed", i)
		}
		if prev, dup := owner[seed]; dup {
			t.Errorf("daemons %d and %d run the session on the same seed %q", prev, i, seed)
		}
		owner[seed] = i
	}
}

// TestServiceDrain checks the graceful-drain surface: a draining
// daemon rejects new work with the typed draining code and a
// Retry-After, reports non-200 draining on /healthz, and Drain lets a
// running session finish inside the budget.
func TestServiceDrain(t *testing.T) {
	leakcheck.Check(t)
	m := startDurable(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A session created before the drain, with every profile in: its
	// runners are executing when the drain begins.
	id, err := m.clients[0].CreateSession(ctx, testSpec("drain-finishes"))
	if err != nil {
		t.Fatal(err)
	}
	// An announced session whose participant 1 has NOT submitted yet.
	lateID, err := m.clients[0].CreateSession(ctx, testSpec("drain-late"))
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 4; j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			t.Fatalf("submit to daemon %d: %v", j, err)
		}
	}
	for _, d := range m.daemons {
		d.BeginDrain()
	}

	// New creations shed with the typed, retryable draining code.
	_, err = m.clients[0].CreateSession(ctx, testSpec("drain-rejected"))
	if !groupranking.IsDraining(err) {
		t.Fatalf("create while draining returned %v, want the draining rejection", err)
	}
	if apiErr, ok := err.(*groupranking.APIError); !ok || apiErr.RetryAfter <= 0 {
		t.Fatalf("draining rejection carries no Retry-After: %#v", err)
	}
	// First profile submissions are new work too.
	if err := m.clients[1].Submit(ctx, lateID, testProfiles[0].Values); !groupranking.IsDraining(err) {
		t.Fatalf("submit while draining returned %v, want the draining rejection", err)
	}

	// /healthz flips to 503 "draining" with the session census.
	admin := httptest.NewServer(telemetry.AdminMux(m.tel))
	defer admin.Close()
	resp, err := m.hc.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Status  string `json:"status"`
		Service *struct {
			Draining bool           `json:"draining"`
			Epoch    int            `json:"epoch"`
			Sessions map[string]int `json:"sessions"`
		} `json:"service"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || report.Status != "draining" {
		t.Fatalf("/healthz while draining: %d %q, want 503 draining", resp.StatusCode, report.Status)
	}
	if report.Service == nil || !report.Service.Draining || report.Service.Epoch != 1 {
		t.Fatalf("/healthz service block: %+v", report.Service)
	}
	total := 0
	for _, n := range report.Service.Sessions {
		total += n
	}
	if total < 2 {
		t.Fatalf("/healthz session census counts %d sessions, want at least the 2 hosted ones", total)
	}

	// The running session finishes inside the drain budget; only the
	// profile-less one remains parked (so daemon 0, which started it at
	// creation, waits out its whole budget — keep it short).
	for _, d := range m.daemons {
		if left := d.Drain(3 * time.Second); left > 1 {
			t.Fatalf("daemon %d drained with %d sessions left, want at most the pending one", d.Me(), left)
		}
	}
	res, err := m.clients[0].Result(ctx, id)
	if err != nil || res.State != groupranking.SessionDone {
		t.Fatalf("drained session: %v / %+v", err, res)
	}
}

// TestServiceIdempotentSubmit: a byte-identical resubmission is
// acknowledged again instead of conflicting; a different profile under
// the same session still conflicts.
func TestServiceIdempotentSubmit(t *testing.T) {
	leakcheck.Check(t)
	m := startMesh(t, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := m.clients[0].CreateSession(ctx, testSpec("idem-submit"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.clients[1].Submit(ctx, id, testProfiles[0].Values); err != nil {
		t.Fatal(err)
	}
	if err := m.clients[1].Submit(ctx, id, testProfiles[0].Values); err != nil {
		t.Fatalf("identical resubmission: %v, want the idempotent ack", err)
	}
	err = m.clients[1].Submit(ctx, id, []int64{99, 99})
	apiErr, ok := err.(*groupranking.APIError)
	if !ok || apiErr.Code != "conflict" {
		t.Fatalf("conflicting resubmission returned %v, want conflict", err)
	}
	// Finish the session so nothing lingers.
	for j := 2; j < 4; j++ {
		if err := m.clients[j].Submit(ctx, id, testProfiles[j-1].Values); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := m.clients[0].WaitResult(ctx, id, 5*time.Millisecond); err != nil || res.State != groupranking.SessionDone {
		t.Fatalf("session after resubmissions: %v / %+v", err, res)
	}
}

// TestServiceBadJournalDir: an unusable journal directory is the typed
// ErrBadJournalDir, and runtime knobs Runtime.Validate rejects, or a
// Grace RecoveryOptions.Validate rejects, are the typed ErrBadConfig,
// both detected before the daemon ever touches the mesh.
func TestServiceBadJournalDir(t *testing.T) {
	addrs, err := transport.FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the directory should be.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"", file} {
		cfg := service.Config{
			Addrs:    addrs,
			Me:       0,
			Runtime:  groupranking.Runtime{Timeout: 5 * time.Second},
			Recovery: &groupranking.RecoveryOptions{Dir: dir},
		}
		_, err := service.NewDaemon(cfg)
		if !errors.Is(err, service.ErrBadJournalDir) {
			t.Fatalf("Recovery.Dir=%q: NewDaemon returned %v, want ErrBadJournalDir", dir, err)
		}
		if !strings.Contains(err.Error(), "journal directory") {
			t.Fatalf("error does not explain itself: %v", err)
		}
	}
	for _, cfg := range []service.Config{
		{Runtime: groupranking.Runtime{Workers: -1}},
		{Runtime: groupranking.Runtime{Timeout: -time.Second}},
		{Recovery: &groupranking.RecoveryOptions{Dir: t.TempDir(), Grace: -time.Second}},
	} {
		cfg.Addrs = addrs
		_, err := service.NewDaemon(cfg)
		if !errors.Is(err, service.ErrBadConfig) {
			t.Fatalf("config %+v: NewDaemon returned %v, want ErrBadConfig", cfg, err)
		}
	}
}

// TestServiceParentBuildTableRefused: a session table in the JSONL form
// of earlier builds fails the framed table's magic. The daemon refuses
// it as ErrBadJournalDir naming the file (rankd exits 2) and leaves it
// untouched — never boots on an empty table in its place.
func TestServiceParentBuildTableRefused(t *testing.T) {
	addrs, err := transport.FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	table := filepath.Join(dir, "sessions-p0.table")
	jsonl := []byte(`{"t":"boot","epoch":1}` + "\n" + `{"t":"open","id":"s-1","spec":{"k":2},"created_ms":1}` + "\n")
	if err := os.WriteFile(table, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = service.NewDaemon(service.Config{
		Addrs:    addrs,
		Me:       0,
		Runtime:  groupranking.Runtime{Timeout: 5 * time.Second},
		Recovery: &groupranking.RecoveryOptions{Dir: dir},
	})
	if !errors.Is(err, service.ErrBadJournalDir) || !strings.Contains(err.Error(), table) {
		t.Fatalf("NewDaemon on a parent-build table: %v; want ErrBadJournalDir naming %s", err, table)
	}
	if after, _ := os.ReadFile(table); string(after) != string(jsonl) {
		t.Fatal("the refused table was rewritten")
	}
}
