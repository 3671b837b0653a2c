package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/blame"
	"groupranking/internal/leakcheck"
	"groupranking/internal/tracemerge"
	"groupranking/internal/transport"
)

// buildBinary compiles the rankparty command once per test.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rankparty")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rankparty: %v\n%s", err, out)
	}
	return bin
}

type partyResult struct {
	out  []byte
	err  error
	code int
}

// startParty builds the command for one endpoint of the demo mesh: the
// initiator (me = 0) holds the criterion and weights, participants hold
// a profile.
func startParty(bin string, addrs []string, me int, timeout time.Duration, extra ...string) (*exec.Cmd, *bytes.Buffer) {
	args := []string{
		"-addrs", strings.Join(addrs, ","),
		"-me", fmt.Sprint(me),
		"-attrs", "age:eq,activity:gt",
		"-k", "2", "-d1", "7", "-d2", "4", "-h", "6",
		"-group", "toy-dl-256",
		"-seed", "rankparty-test",
		"-timeout", timeout.String(),
	}
	profiles := []string{"30,50", "25,60", "45,90"}
	if me == 0 {
		args = append(args, "-values", "30,0", "-weights", "2,1")
	} else {
		args = append(args, "-values", profiles[me-1])
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	return cmd, &buf
}

// TestFourProcessesComplete is the happy path: the initiator and three
// participants run the complete framework as four OS processes over
// loopback TCP; each exits zero, the participants with the expected
// rank, the initiator with the top-2 submissions.
func TestFourProcessesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	leakcheck.Check(t)
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]partyResult, 4)
	var wg sync.WaitGroup
	for me := 0; me < 4; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd, buf := startParty(bin, addrs, me, 60*time.Second)
			err := cmd.Run()
			results[me] = partyResult{out: buf.Bytes(), err: err, code: cmd.ProcessState.ExitCode()}
		}()
	}
	wg.Wait()
	for me, r := range results {
		if r.code != 0 {
			t.Fatalf("party %d exited %d: %s", me, r.code, r.out)
		}
	}
	init := string(results[0].out)
	if !strings.Contains(init, "received 2 top-2 submissions") {
		t.Errorf("initiator output %q does not report the top-2 submissions", init)
	}
	wantRank := []int{1, 2, 3} // ada, ben, cam with the demo inputs
	for me := 1; me < 4; me++ {
		want := fmt.Sprintf("ranks #%d", wantRank[me-1])
		if !strings.Contains(string(results[me].out), want) {
			t.Errorf("party %d output %q does not contain %q", me, results[me].out, want)
		}
	}
}

// TestSessionSkewRefused starts a real four-process mesh where one
// participant is configured with a different attribute width (-d1).
// Session establishment must refuse the session on every endpoint —
// exit non-zero with a diagnostic naming the d1 field, before any
// crypto phase runs. This is the process-level proof that a skewed
// deployment, a codec skew between builds included (core's
// TestEstablishSessionCodecMismatch), cannot reach the protocol.
func TestSessionSkewRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	leakcheck.Check(t)
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	const skewed = 2
	results := make([]partyResult, 4)
	var wg sync.WaitGroup
	for me := 0; me < 4; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			var extra []string
			if me == skewed {
				extra = []string{"-d1", "8"} // the later -d1 wins
			}
			cmd, buf := startParty(bin, addrs, me, 30*time.Second, extra...)
			err := cmd.Run()
			results[me] = partyResult{out: buf.Bytes(), err: err, code: cmd.ProcessState.ExitCode()}
		}()
	}
	wg.Wait()
	for me, r := range results {
		if r.code == 0 {
			t.Fatalf("party %d completed despite the d1 skew: %s", me, r.out)
		}
		if !strings.Contains(string(r.out), "attribute bits d1") {
			t.Errorf("party %d diagnostic %q does not name the d1 field", me, r.out)
		}
	}
}

// TestSurvivorsAbortWhenParticipantKilled lets one participant die
// right after joining the mesh: the three surviving OS processes must
// exit non-zero with the abort protocol's diagnostic naming the dead
// party — not hang, not print a rank or submissions. The victim
// endpoint lives in the test process so its death is deterministic.
func TestSurvivorsAbortWhenParticipantKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	leakcheck.Check(t)
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	results := make([]partyResult, 4)
	cmds := make([]*exec.Cmd, 4)
	bufs := make([]*bytes.Buffer, 4)
	for me := 0; me < 4; me++ {
		if me == victim {
			continue
		}
		cmds[me], bufs[me] = startParty(bin, addrs, me, 10*time.Second)
		if err := cmds[me].Start(); err != nil {
			t.Fatal(err)
		}
	}
	// The victim joins the mesh, then dies without announcing a session
	// — exactly how a participant killed right after connecting appears
	// to its peers.
	vic, err := transport.NewTCPFabric(addrs, victim, 10*time.Second)
	if err != nil {
		t.Fatalf("victim could not join the mesh: %v", err)
	}
	vic.Close()

	var wg sync.WaitGroup
	for me := 0; me < 4; me++ {
		if me == victim {
			continue
		}
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := cmds[me].Wait()
			results[me] = partyResult{out: bufs[me].Bytes(), err: err, code: cmds[me].ProcessState.ExitCode()}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		for _, c := range cmds {
			if c != nil && c.Process != nil {
				c.Process.Kill()
			}
		}
		t.Fatal("survivors hung after participant death")
	}
	for me, r := range results {
		if me == victim {
			continue
		}
		if r.code == 0 {
			t.Errorf("party %d exited zero after peer death: %s", me, r.out)
			continue
		}
		out := string(r.out)
		if !strings.Contains(out, "aborting") {
			t.Errorf("party %d gave no abort diagnostic: %q", me, out)
		}
		if strings.Contains(out, "ranks #") || strings.Contains(out, "submissions") {
			t.Errorf("party %d printed a result despite the abort: %q", me, out)
		}
		if !strings.Contains(out, fmt.Sprintf("party %d", victim)) {
			t.Errorf("party %d did not name the dead party %d: %q", me, victim, out)
		}
	}
}

// TestEquivocatorBlamedAcrossProcesses is the README's active-adversary
// demo as a test: party 1 runs with -fault-equivocate, so its own
// endpoint sends conflicting broadcast payloads to different peers. The
// honest processes must abort (never print a rank), name party 1, and
// the initiator's -blame-out certificate must survive offline
// verification while accusing party 1 — never an honest party.
func TestEquivocatorBlamedAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	leakcheck.Check(t)
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	certFile := filepath.Join(t.TempDir(), "blame.json")
	results := make([]partyResult, 4)
	var wg sync.WaitGroup
	for me := 0; me < 4; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			var extra []string
			switch me {
			case 0:
				extra = []string{"-blame-out", certFile}
			case 1:
				extra = []string{"-fault-equivocate"}
			}
			cmd, buf := startParty(bin, addrs, me, 60*time.Second, extra...)
			err := cmd.Run()
			results[me] = partyResult{out: buf.Bytes(), err: err, code: cmd.ProcessState.ExitCode()}
		}()
	}
	wg.Wait()
	for me, r := range results {
		if me == 1 {
			continue // the cheater's own exit status is not part of the contract
		}
		if r.code == 0 {
			t.Fatalf("honest party %d completed under an equivocating peer: %s", me, r.out)
		}
		out := string(r.out)
		if strings.Contains(out, "ranks #") || strings.Contains(out, "submissions") {
			t.Fatalf("honest party %d printed a result under attack: %s", me, out)
		}
	}
	data, err := os.ReadFile(certFile)
	if err != nil {
		t.Fatalf("initiator wrote no blame certificate: %v\ninitiator output: %s", err, results[0].out)
	}
	cert, err := blame.VerifyJSON(data)
	if err != nil {
		t.Fatalf("blame certificate fails offline verification: %v\n%s", err, data)
	}
	if cert.Accused != 1 {
		t.Fatalf("certificate accuses party %d, the equivocator is 1 — FALSE ACCUSATION\n%s", cert.Accused, data)
	}
}

// scrapeCounter fetches /metrics from an admin endpoint and returns the
// value of one un-labelled counter, or -1 with the raw body when the
// endpoint is not serving yet or the counter is absent.
func scrapeCounter(addr, name string) (float64, string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return -1, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		return -1, string(body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		var v float64
		if n, err := fmt.Sscanf(line, name+" %g", &v); n == 1 && err == nil {
			return v, string(body)
		}
	}
	return -1, string(body)
}

// TestAdminEndpointsAndMergedTrace runs the full four-process mesh with
// every party serving -admin and writing -trace, and party 2 running
// with an injected -straggle delay. While the run is in flight the test
// scrapes the initiator's /metrics (counters must be live and
// monotonically increasing mid-run) and /healthz (200 with all links
// up). Afterwards the four per-party traces must merge into one
// timeline — proving all parties agreed on the session-pinned trace ID
// — and the analyzer must name the straggler.
func TestAdminEndpointsAndMergedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	leakcheck.Check(t)
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	adminAddrs, err := transport.FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	const straggler = 2
	dir := t.TempDir()
	traceFiles := make([]string, 4)
	results := make([]partyResult, 4)
	var wg sync.WaitGroup
	for me := 0; me < 4; me++ {
		me := me
		traceFiles[me] = filepath.Join(dir, fmt.Sprintf("p%d.jsonl", me))
		wg.Add(1)
		go func() {
			defer wg.Done()
			extra := []string{"-admin", adminAddrs[me], "-trace", traceFiles[me]}
			if me == straggler {
				extra = append(extra, "-straggle", "300ms")
			}
			cmd, buf := startParty(bin, addrs, me, 60*time.Second, extra...)
			err := cmd.Run()
			results[me] = partyResult{out: buf.Bytes(), err: err, code: cmd.ProcessState.ExitCode()}
		}()
	}

	// Mid-run: the initiator's admin endpoint must serve live, growing
	// counters. The straggler's injected 300ms per phase keeps the run in
	// flight long enough to observe two distinct values.
	var first float64 = -1
	deadline := time.Now().Add(20 * time.Second)
	for first < 0 && time.Now().Before(deadline) {
		first, _ = scrapeCounter(adminAddrs[0], "mux_session_msgs_total")
		if first < 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if first < 0 {
		t.Fatal("initiator's /metrics never served mux_session_msgs_total mid-run")
	}
	if resp, err := http.Get("http://" + adminAddrs[0] + "/healthz"); err != nil {
		t.Errorf("mid-run /healthz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("mid-run /healthz = %d, want 200 with the mesh up", resp.StatusCode)
		}
	}
	grew := false
	prev := first
	for !grew && time.Now().Before(deadline) {
		v, _ := scrapeCounter(adminAddrs[0], "mux_session_msgs_total")
		if v < 0 {
			break // the run finished and the endpoint went away
		}
		if v < prev {
			t.Fatalf("mux_session_msgs_total went backwards mid-run: %g then %g", prev, v)
		}
		grew = v > prev
		prev = v
		time.Sleep(15 * time.Millisecond)
	}
	if !grew {
		t.Errorf("mux_session_msgs_total never increased across mid-run scrapes (stuck at %g)", prev)
	}

	wg.Wait()
	for me, r := range results {
		if r.code != 0 {
			t.Fatalf("party %d exited %d: %s", me, r.code, r.out)
		}
	}

	// Post-run: the four traces merge (same trace ID on every party, per
	// the session handshake) and the analyzer blames the injected
	// straggler on compute, not wall time.
	traces, err := tracemerge.LoadFiles(traceFiles)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tracemerge.Merge(traces)
	if err != nil {
		t.Fatalf("merging the four per-party traces: %v", err)
	}
	// The trace ID core proposes is derived from the seed alone.
	sum := sha256.Sum256([]byte("groupranking-trace-v1|rankparty-test"))
	if want := hex.EncodeToString(sum[:8]); tl.TraceID != want {
		t.Errorf("merged trace ID = %q, want the seed-derived %q", tl.TraceID, want)
	}
	if tl.Straggler != straggler {
		var rendered bytes.Buffer
		tl.WriteText(&rendered)
		t.Errorf("analyzer names party %d as straggler, want the -straggle party %d\n%s",
			tl.Straggler, straggler, rendered.String())
	}
	for me := 0; me < 4; me++ {
		if !strings.Contains(string(results[me].out), "trace id "+tl.TraceID) {
			t.Errorf("party %d did not log the agreed trace id %s: %q", me, tl.TraceID, results[me].out)
		}
	}
}

// TestUsageErrors pins the CLI's argument validation exit code.
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	bin := buildBinary(t)
	cases := [][]string{
		{},
		{"-addrs", "a,b", "-me", "0", "-attrs", "eq", "-values", "1"},
		{"-addrs", "a,b,c", "-me", "5", "-attrs", "eq", "-values", "1"},
		{"-addrs", "a,b,c", "-me", "0", "-attrs", "age:weird", "-values", "1"},
		{"-addrs", "a,b,c", "-me", "1", "-attrs", "eq", "-values", "1", "-weights", "2"},
		{"-addrs", "a,b,c", "-me", "0", "-attrs", "eq", "-values", "1", "-weights", "2", "-sorter", "bogus"},
		{"-addrs", "a,b,c", "-me", "0", "-attrs", "eq", "-values", "1", "-weights", "2", "-timeout", "-1s"},
		{"-addrs", "a,b,c", "-me", "0", "-attrs", "eq", "-values", "1", "-weights", "2", "-grace", "-1s"},
	}
	for _, args := range cases {
		cmd := exec.Command(bin, args...)
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("rankparty %v exited %d (want 2): %s", args, code, out)
		}
	}
}
