package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestRankdDrainWithIdleConnections pins a prompt SIGTERM exit while
// clients hold connections to the session API open: one keep-alive
// connection idle after a served request, and one opened without a
// request, as a client that dials ahead of use leaves it. With no
// session to finish, the daemon must close both and exit 0 well inside
// its drain budget.
func TestRankdDrainWithIdleConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("process test skipped in short mode")
	}
	m := startChaosMesh(t)
	api := m.apiAddr[0]

	keepAlive, err := net.Dial("tcp", api)
	if err != nil {
		t.Fatal(err)
	}
	defer keepAlive.Close()
	if _, err := io.WriteString(keepAlive, "GET /v1/sessions HTTP/1.1\r\nHost: rankd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(keepAlive)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("session list answered %d (close %v), want a kept-alive 200", resp.StatusCode, resp.Close)
	}
	unused, err := net.Dial("tcp", api)
	if err != nil {
		t.Fatal(err)
	}
	defer unused.Close()

	start := time.Now()
	if err := m.cmds[0].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.cmds[0].Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon 0 did not exit after SIGTERM:\n%s", m.bufs[0].String())
	}
	elapsed := time.Since(start)
	if code := m.cmds[0].ProcessState.ExitCode(); code != 0 {
		t.Errorf("daemon 0 exited %d after SIGTERM:\n%s", code, m.bufs[0].String())
	}
	m.cmds[0] = nil
	// The unused connection's 1 s header deadline bounds the exit; without
	// it net/http waits 5 s for that connection before giving up on it.
	if elapsed > 3*time.Second {
		t.Errorf("SIGTERM with idle API connections took %v to exit, want about 1 s, well under the 5 s stall", elapsed)
	}
	for name, c := range map[string]net.Conn{"keep-alive": keepAlive, "unused": unused} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Errorf("%s connection still open after the daemon exited (read %d bytes, %v)", name, n, err)
		}
	}
}
