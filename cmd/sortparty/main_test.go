package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/transport"
)

// buildBinary compiles the sortparty command once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sortparty")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sortparty: %v\n%s", err, out)
	}
	return bin
}

type partyResult struct {
	out  []byte
	err  error
	code int
}

func startParty(bin string, addrs []string, me int, value uint64, groupName string, bits int, timeout time.Duration) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(bin,
		"-addrs", strings.Join(addrs, ","),
		"-me", fmt.Sprint(me),
		"-value", fmt.Sprint(value),
		"-bits", fmt.Sprint(bits),
		"-group", groupName,
		"-seed", "sortparty-test",
		"-timeout", timeout.String(),
	)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	return cmd, &buf
}

// TestThreePartiesComplete is the happy path: three OS processes rank
// their values over loopback TCP and each exits zero with its rank.
func TestThreePartiesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	values := []uint64{42, 97, 13}
	wantRank := []int{2, 1, 3}
	results := make([]partyResult, 3)
	var wg sync.WaitGroup
	for me := 0; me < 3; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd, buf := startParty(bin, addrs, me, values[me], "toy-dl-256", 8, 30*time.Second)
			err := cmd.Run()
			results[me] = partyResult{out: buf.Bytes(), err: err, code: cmd.ProcessState.ExitCode()}
		}()
	}
	wg.Wait()
	for me, r := range results {
		if r.code != 0 {
			t.Fatalf("party %d exited %d: %s", me, r.code, r.out)
		}
		want := fmt.Sprintf("ranks #%d", wantRank[me])
		if !strings.Contains(string(r.out), want) {
			t.Errorf("party %d output %q does not contain %q", me, r.out, want)
		}
	}
}

// TestSurvivorsAbortWhenPeerKilled lets one of three parties die right
// after joining the mesh: the two surviving OS processes must exit
// non-zero with a diagnostic naming the dead party — not hang, not
// print a rank. The victim endpoint lives in the test process so its
// death is deterministic (a timer-based kill of a third process races
// against group setup and protocol completion).
func TestSurvivorsAbortWhenPeerKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	bin := buildBinary(t)
	addrs, err := transport.FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	values := []uint64{42, 97, 13}
	results := make([]partyResult, 3)
	cmds := make([]*exec.Cmd, 3)
	bufs := make([]*bytes.Buffer, 3)
	for me := 0; me < 3; me++ {
		if me == victim {
			continue
		}
		cmds[me], bufs[me] = startParty(bin, addrs, me, values[me], "toy-dl-256", 8, 10*time.Second)
		if err := cmds[me].Start(); err != nil {
			t.Fatal(err)
		}
	}
	// The victim joins the mesh, then dies without sending a single
	// protocol message — exactly how a party killed right after
	// connecting appears to its peers.
	vic, err := transport.NewTCPFabric(addrs, victim, 10*time.Second)
	if err != nil {
		t.Fatalf("victim could not join the mesh: %v", err)
	}
	vic.Close()

	var wg sync.WaitGroup
	for me := 0; me < 3; me++ {
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
		t.Fatal("survivors hung after peer death")
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
		if strings.Contains(out, "ranks #") {
			t.Errorf("party %d printed a rank despite the abort: %q", me, out)
		}
		if !strings.Contains(out, fmt.Sprintf("party %d", victim)) {
			t.Errorf("party %d did not name the dead party %d: %q", me, victim, out)
		}
	}
	_ = os.Remove(bin)
}
