package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"groupranking"
	"groupranking/internal/transport"
)

// mesh is one running set of rankd processes: daemon 0 the initiator,
// daemons 1..n the participants, each durable under its own journal
// directory and otherwise on default flags.
type mesh struct {
	cmds    []*exec.Cmd
	logs    []*bytes.Buffer
	clients []*groupranking.Client
	admins  []string // admin base URLs; empty unless started with admin
	hc      *http.Client
	http    *countingTransport // nil unless started with admin
	readyS  float64            // spawn → every API answers
}

// countingTransport counts what the clients send, so a traced run can
// report polls and shed requests without touching the client's code.
type countingTransport struct {
	polls   atomic.Int64 // GET …/result
	retried atomic.Int64 // responses the client retries: 429 and 503
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/result") {
		c.polls.Add(1)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		c.retried.Add(1)
	}
	return resp, err
}

func (c *countingTransport) CloseIdleConnections() {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// startMesh launches parties rankd processes journaling under dir and
// waits until every API answers. With admin, each daemon also serves
// /metrics, which is what makes a run a traced one.
func startMesh(ctx context.Context, rankd, dir string, parties int, admin bool) (*mesh, error) {
	addrs, err := transport.FreeLoopbackAddrs(3 * parties)
	if err != nil {
		return nil, err
	}
	meshAddrs, apiAddrs, adminAddrs := addrs[:parties], addrs[parties:2*parties], addrs[2*parties:]
	m := &mesh{hc: &http.Client{Timeout: 30 * time.Second}}
	if admin {
		m.http = &countingTransport{}
		m.hc.Transport = m.http
	}
	start := time.Now()
	for i := 0; i < parties; i++ {
		args := []string{
			"-addrs", strings.Join(meshAddrs, ","), "-me", fmt.Sprint(i),
			"-api", apiAddrs[i], "-journal", filepath.Join(dir, fmt.Sprintf("d%d", i)),
		}
		if admin {
			args = append(args, "-admin", adminAddrs[i])
			m.admins = append(m.admins, "http://"+adminAddrs[i])
		}
		// Killed with the context, so no failure path or signal leaves a
		// daemon behind.
		cmd := exec.CommandContext(ctx, rankd, args...)
		log := &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Start(); err != nil {
			m.kill()
			return nil, fmt.Errorf("starting rankd %d: %w", i, err)
		}
		m.cmds = append(m.cmds, cmd)
		m.logs = append(m.logs, log)
		m.clients = append(m.clients, groupranking.NewClient("http://"+apiAddrs[i], m.hc).
			WithRetry(groupranking.RetryPolicy{MaxAttempts: 8}))
	}
	for i, c := range m.clients {
		if err := waitReady(ctx, c); err != nil {
			m.kill()
			return nil, fmt.Errorf("rankd %d never answered: %w\n%s", i, err, m.logs[i])
		}
	}
	m.readyS = time.Since(start).Seconds()
	return m, nil
}

// waitReady polls a daemon's API until it answers; rankd serves it only
// once the daemon has joined the mesh.
func waitReady(ctx context.Context, c *groupranking.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		_, err := c.Sessions(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (m *mesh) pids() []int {
	pids := make([]int, len(m.cmds))
	for i, cmd := range m.cmds {
		pids[i] = cmd.Process.Pid
	}
	return pids
}

// drain sends every daemon SIGTERM and requires each to exit 0. It
// returns how long the slowest took.
func (m *mesh) drain() (float64, error) {
	// A connection the client's transport dialed but never used counts
	// as active to rankd's http.Server.Shutdown for five seconds; hang
	// up first, so that drain time is the daemon's own.
	m.hc.CloseIdleConnections()
	start := time.Now()
	for _, cmd := range m.cmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			m.kill()
			return 0, err
		}
	}
	var errs []error
	for i, cmd := range m.cmds {
		if err := cmd.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("rankd %d after SIGTERM: %w\n%s", i, err, m.logs[i]))
		}
	}
	m.cmds = nil
	return time.Since(start).Seconds(), errors.Join(errs...)
}

// kill stops whatever is still running; it is the failure path.
func (m *mesh) kill() {
	for _, cmd := range m.cmds {
		cmd.Process.Kill()
		cmd.Wait()
	}
	m.cmds = nil
}

// scrape reads every daemon's /metrics.
func (m *mesh) scrape(ctx context.Context) ([]promSample, error) {
	out := make([]promSample, len(m.admins))
	for i, base := range m.admins {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := m.hc.Do(req)
		if err != nil {
			return nil, err
		}
		out[i], err = parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rankdBinary is the daemon bench/run.sh built from this checkout.
func rankdBinary() (string, error) {
	path := os.Getenv("BENCH_RANKD")
	if path == "" {
		return "", errors.New("BENCH_RANKD is not set: start the benchmark through bench/run.sh, which builds rankd and names it there")
	}
	return path, nil
}
