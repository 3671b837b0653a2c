package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"groupranking"
	"groupranking/internal/transport"
)

// The daemon-level chaos suite (make chaos-rankd): real rankd
// processes, real SIGKILL. One of four daemons is killed with many
// sessions in flight and restarted with the same flags and journal
// directory; every session must end byte-identical to the in-process
// ground truth — never a wrong result — and the mesh must then drain
// to a clean exit 0 on SIGTERM.

// buildRankd compiles the rankd command once per test.
func buildRankd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rankd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rankd: %v\n%s", err, out)
	}
	return bin
}

// chaosMesh is one 4-process rankd deployment plus its API clients.
type chaosMesh struct {
	bin       string
	meshAddr  []string
	apiAddr   []string
	adminAddr []string
	jdirs     []string
	cmds      []*exec.Cmd
	bufs      []*bytes.Buffer
	clients   []*groupranking.Client
	hc        *http.Client
}

// startDaemon (re)launches slot me with its permanent flags.
func (m *chaosMesh) startDaemon(t *testing.T, me int) {
	t.Helper()
	cmd := exec.Command(m.bin,
		"-addrs", strings.Join(m.meshAddr, ","),
		"-me", fmt.Sprint(me),
		"-api", m.apiAddr[me],
		"-admin", m.adminAddr[me],
		"-journal", m.jdirs[me],
		"-grace", "60s",
		"-session-timeout", "120s",
		"-drain", "30s",
	)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon %d: %v", me, err)
	}
	m.cmds[me], m.bufs[me] = cmd, &buf
}

// awaitAPI polls slot me's session API until the daemon answers (it
// only serves once the mesh is joined).
func (m *chaosMesh) awaitAPI(t *testing.T, me int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := m.hc.Get("http://" + m.apiAddr[me] + "/v1/sessions")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon %d's API never came up:\n%s", me, m.bufs[me].String())
}

func startChaosMesh(t *testing.T) *chaosMesh {
	t.Helper()
	addrs, err := transport.FreeLoopbackAddrs(12)
	if err != nil {
		t.Fatal(err)
	}
	m := &chaosMesh{
		bin:       buildRankd(t),
		meshAddr:  addrs[:4],
		apiAddr:   addrs[4:8],
		adminAddr: addrs[8:],
		jdirs:     make([]string, 4),
		cmds:      make([]*exec.Cmd, 4),
		bufs:      make([]*bytes.Buffer, 4),
		clients:   make([]*groupranking.Client, 4),
		hc:        &http.Client{Timeout: 10 * time.Second},
	}
	t.Cleanup(m.hc.CloseIdleConnections)
	for me := 0; me < 4; me++ {
		m.jdirs[me] = t.TempDir()
		m.startDaemon(t, me)
		// Retry through the restart window: a poll that lands while the
		// victim is down should back off, not fail the session.
		m.clients[me] = groupranking.NewClient("http://"+m.apiAddr[me], m.hc).
			WithRetry(groupranking.RetryPolicy{MaxAttempts: 8})
	}
	t.Cleanup(func() {
		for _, c := range m.cmds {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	})
	for me := 0; me < 4; me++ {
		m.awaitAPI(t, me)
	}
	return m
}

// linkConnects scrapes slot me's admin /metrics for
// mux_link_connects_total, keyed by peer label.
func (m *chaosMesh) linkConnects(t *testing.T, me int) map[string]string {
	t.Helper()
	resp, err := m.hc.Get("http://" + m.adminAddr[me] + "/metrics")
	if err != nil {
		t.Fatalf("scraping daemon %d: %v", me, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scraping daemon %d: %v", me, err)
	}
	out := make(map[string]string)
	for _, match := range regexp.MustCompile(`(?m)^mux_link_connects_total\{peer="(\d+)"\} (\S+)$`).FindAllStringSubmatch(string(body), -1) {
		out[match[1]] = match[2]
	}
	if len(out) != 3 {
		t.Fatalf("daemon %d reports mux_link_connects_total for %d peers, want 3:\n%s", me, len(out), body)
	}
	return out
}

// chaosSpec and chaosProfiles give every session its own distinct
// inputs so a cross-wired recovery (one session resumed with another's
// frames) cannot produce a passing result.
func chaosSpec(i int) groupranking.SessionSpec {
	return groupranking.SessionSpec{
		Attributes: []groupranking.ClientAttribute{
			{Name: "age", Kind: groupranking.AttrEqualTo},
			{Name: "activity", Kind: groupranking.AttrGreaterThan},
		},
		Criterion: groupranking.ClientCriterion{Values: []int64{30, 0}, Weights: []int64{2, 1}},
		K:         2, D1: 7, D2: 3, H: 5,
		GroupName: "toy-dl-256",
		Seed:      fmt.Sprintf("chaos-%d", i),
	}
}

func chaosProfiles(i int) []groupranking.Profile {
	return []groupranking.Profile{
		{Values: []int64{int64(20 + i), int64(40 + 3*i)}},
		{Values: []int64{int64(35 - i), int64(55 + 2*i)}},
		{Values: []int64{int64(28 + 2*i), int64(70 + i)}},
	}
}

// groundTruth runs session i start to finish in process — the
// byte-identity reference the recovered service run must match.
func groundTruth(t *testing.T, i int) *groupranking.Result {
	t.Helper()
	q, err := groupranking.NewQuestionnaire([]groupranking.Attribute{
		{Name: "age", Kind: groupranking.EqualTo},
		{Name: "activity", Kind: groupranking.GreaterThan},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := chaosSpec(i)
	res, err := groupranking.Rank(context.Background(), q,
		groupranking.Criterion{Values: spec.Criterion.Values, Weights: spec.Criterion.Weights},
		chaosProfiles(i), groupranking.Options{
			K: spec.K, D1: spec.D1, D2: spec.D2, H: spec.H,
			GroupName: spec.GroupName,
			Seed:      spec.Seed,
		})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosRankdKillRestart is the acceptance test from the issue: 8
// sessions in flight across a 4-process rankd mesh, SIGKILL one
// participant daemon, restart it with the same flags, and require
// every session to complete byte-identical to the in-process ground
// truth; then SIGTERM the whole mesh and require clean exits.
func TestChaosRankdKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos test skipped in short mode")
	}
	m := startChaosMesh(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	const sessions = 8
	const victim = 1

	// Launch all sessions: create at daemon 0, then feed every
	// participant daemon its profile. After the last submit every
	// session is live on all four processes.
	ids := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		id, err := m.clients[0].CreateSession(ctx, chaosSpec(i))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profiles := chaosProfiles(i)
			for j := 1; j < 4; j++ {
				if err := m.clients[j].Submit(ctx, ids[i], profiles[j-1].Values); err != nil {
					errs[i] = fmt.Errorf("submit %d to daemon %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The survivors' link counters before the kill: afterwards only the
	// victim's label may have moved. Heartbeats must never drop a
	// healthy link, however busy the daemons are.
	survivors := []int{0, 2, 3}
	connectsBefore := make(map[int]map[string]string)
	for _, me := range survivors {
		connectsBefore[me] = m.linkConnects(t, me)
	}

	// SIGKILL the victim with the fleet in flight, then bring up its
	// next life on the same journals. The kernel drops its flock with
	// the process, so the restart must not see a stale lock.
	if err := m.cmds[victim].Process.Kill(); err != nil {
		t.Fatalf("killing daemon %d: %v", victim, err)
	}
	m.cmds[victim].Wait()
	m.startDaemon(t, victim)
	m.awaitAPI(t, victim)

	// Every session must converge on the exact in-process outcome.
	for i := 0; i < sessions; i++ {
		res, err := m.clients[0].WaitResult(ctx, ids[i], 25*time.Millisecond)
		if err != nil {
			t.Fatalf("session %d result: %v", i, err)
		}
		if res.State != groupranking.SessionDone {
			t.Fatalf("session %d ended %q after the kill: %s\nvictim log:\n%s",
				i, res.State, res.Error, m.bufs[victim].String())
		}
		want := groundTruth(t, i)
		if len(res.Submissions) != len(want.Submissions) {
			t.Fatalf("session %d: %d submissions, ground truth has %d", i, len(res.Submissions), len(want.Submissions))
		}
		for k, got := range res.Submissions {
			exp := want.Submissions[k]
			if got.Participant != exp.Participant || got.ClaimedRank != exp.ClaimedRank || got.Gain != exp.Gain.String() {
				t.Errorf("session %d submission %d: participant %d rank %d gain %s, ground truth participant %d rank %d gain %v",
					i, k, got.Participant, got.ClaimedRank, got.Gain, exp.Participant, exp.ClaimedRank, exp.Gain)
			}
		}
		// The victim's own view — served by its second life — must carry
		// the true rank.
		view, err := m.clients[victim].WaitResult(ctx, ids[i], 25*time.Millisecond)
		if err != nil {
			t.Fatalf("session %d view at the restarted daemon: %v", i, err)
		}
		if view.State != groupranking.SessionDone || view.Rank != want.Ranks[victim-1] {
			t.Errorf("session %d at the restarted daemon: state %q rank %d, ground truth rank %d",
				i, view.State, view.Rank, want.Ranks[victim-1])
		}
	}

	for _, me := range survivors {
		after := m.linkConnects(t, me)
		for peer, n := range after {
			if peer != fmt.Sprint(victim) && n != connectsBefore[me][peer] {
				t.Errorf("daemon %d reconnected to surviving daemon %s (mux_link_connects_total %s -> %s)",
					me, peer, connectsBefore[me][peer], n)
			}
		}
	}

	// Graceful shutdown: SIGTERM everyone; with every session terminal
	// the drain is instant and every process must exit 0.
	for me := 0; me < 4; me++ {
		if err := m.cmds[me].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM daemon %d: %v", me, err)
		}
	}
	for me := 0; me < 4; me++ {
		done := make(chan error, 1)
		go func(me int) { done <- m.cmds[me].Wait() }(me)
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon %d did not exit after SIGTERM:\n%s", me, m.bufs[me].String())
		}
		if code := m.cmds[me].ProcessState.ExitCode(); code != 0 {
			t.Errorf("daemon %d exited %d after SIGTERM:\n%s", me, code, m.bufs[me].String())
		}
		m.cmds[me] = nil
	}
}

// TestChaosRankdBadJournalDir: an unusable -journal must be refused at
// startup with exit 2 — the operator-mistake code — before the daemon
// touches the mesh; so must runtime settings the one Runtime check
// rejects (a negative -workers would otherwise run serial, a negative
// -grace the 15 s default), and -grace without -journal, which would
// otherwise be ignored.
func TestChaosRankdBadJournalDir(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	bin := buildRankd(t)
	addrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	// A file where the journal directory should be.
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := exec.Command("cp", "/dev/null", notADir).Run(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-addrs", strings.Join(addrs[:3], ","),
		"-me", "0",
		"-api", addrs[3],
		"-journal", notADir,
	)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("rankd with -journal pointing at a file exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(string(out), "journal directory") {
		t.Fatalf("startup error does not explain the journal directory problem:\n%s", out)
	}
	for _, bad := range [][]string{
		{"-workers", "-1"},
		{"-journal", t.TempDir(), "-grace", "-1s"},
		{"-session-timeout", "-1s"},
		{"-grace", "5s"},
	} {
		// A daemon that accepts the setting goes on to wait for its mesh;
		// the deadline turns that into a failure instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		args := append([]string{"-addrs", strings.Join(addrs[:3], ","), "-me", "0", "-api", addrs[3]}, bad...)
		cmd := exec.CommandContext(ctx, bin, args...)
		out, _ := cmd.CombinedOutput()
		cancel()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("rankd %v exited %d, want 2:\n%s", bad, code, out)
		}
	}
}
