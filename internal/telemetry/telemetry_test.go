package telemetry

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsDisabled pins the package contract: every handle
// obtained from a nil registry is usable and a no-op, so instrumented
// code never branches on "is telemetry on".
func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	r.Gauge("g", "").Set(3)
	r.Histogram("h", "", ExpBuckets(0.001, 10, 3)).Observe(0.5)
	if cv := r.CounterVec("cv", "", "peer"); cv.With("1") != nil {
		t.Fatal("nil CounterVec.With returned a live counter")
	}
	if gv := r.GaugeVec("gv", "", "peer"); gv.With("1") != nil {
		t.Fatal("nil GaugeVec.With returned a live gauge")
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	r.SetHealthSource(nil)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
}

// exposition renders r and fails the test on a write error.
func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCountersGaugesHistograms exercises the value semantics of each
// metric kind; gauges and histograms are read back from the exposition.
func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-1) // counters never go down; negative adds are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again.Value() != 5 {
		t.Fatal("re-registering a counter did not return the same series")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Set(2.5)

	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 5} {
		h.Observe(v)
	}
	out := exposition(t, r)
	for _, want := range []string{"depth 2.5\n", "lat_seconds_count 5\n", "lat_seconds_sum 5.535\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	cv := r.CounterVec("sends_total", "sends", "peer")
	cv.With("1").Add(3)
	cv.With("2").Inc()
	cv.With("1").Inc()
	if got := cv.With("1").Value(); got != 4 {
		t.Fatalf("labelled counter = %d, want 4", got)
	}
}

// TestInvalidNamesPanic pins that a malformed metric or label name is
// rejected at registration, never exported.
func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "Upper", "1num", "has-dash", "has space", "dotted.name"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering metric name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a bad label name did not panic")
			}
		}()
		r.CounterVec("ok_name", "", "party", "Bad-Label")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a child with fewer values than label keys did not panic")
			}
		}()
		r.CounterVec("two_keys", "", "party", "op").With("0")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("redefining a family with other label keys did not panic")
			}
		}()
		r.CounterVec("keyed", "", "party", "op")
		r.CounterVec("keyed", "", "op", "party")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("redefining a counter as a gauge did not panic")
			}
		}()
		r.Counter("twice", "")
		r.Gauge("twice", "")
	}()
}

// TestWritePrometheus pins the exposition format: HELP/TYPE comments,
// label rendering, cumulative histogram buckets with the +Inf series.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", "Messages sent.").Add(42)
	r.GaugeVec("link_up", "Link state.", "peer").With("2").Set(1)
	ops := r.CounterVec("ops_total", "Operations.", "party", "op")
	ops.With("0", "group_exp").Add(3)
	ops.With("1", "group_exp").Inc()
	h := r.Histogram("rtt_seconds", "Heartbeat RTT.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP msgs_total Messages sent.\n",
		"# TYPE msgs_total counter\n",
		"msgs_total 42\n",
		"# TYPE link_up gauge\n",
		`link_up{peer="2"} 1` + "\n",
		`ops_total{party="0",op="group_exp"} 3` + "\n",
		`ops_total{party="1",op="group_exp"} 1` + "\n",
		"# TYPE rtt_seconds histogram\n",
		`rtt_seconds_bucket{le="0.001"} 1` + "\n",
		`rtt_seconds_bucket{le="0.01"} 2` + "\n",
		`rtt_seconds_bucket{le="+Inf"} 3` + "\n",
		"rtt_seconds_sum 2.0055\n",
		"rtt_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, name := range r.Names() {
		if !ValidName(name) {
			t.Errorf("registered name %q fails ValidName", name)
		}
	}
}

// TestConcurrentUpdatesAndScrapes hammers one registry from many
// goroutines while scraping it — the mid-run /metrics contract, and the
// race-detector target for the hot path.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	h := r.Histogram("lat_seconds", "", ExpBuckets(0.001, 10, 4))
	gv := r.GaugeVec("lag", "", "peer")
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := gv.With("0")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 0.003)
				g.Set(float64(w*iters + i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if want := fmt.Sprintf("lat_seconds_count %d\n", workers*iters); !strings.Contains(exposition(t, r), want) {
		t.Fatalf("exposition missing %q", want)
	}
}

// fakeHealth is a scriptable HealthSource.
type fakeHealth struct {
	mu    sync.Mutex
	peers []PeerHealth
}

func (f *fakeHealth) Health() []PeerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]PeerHealth(nil), f.peers...)
}

// TestAdminMux pins the endpoint contract: /metrics serves every
// family of the registry, /healthz is 503 while starting, 200 with
// every peer connected, and 503 naming the degraded peer.
func TestAdminMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", "").Add(7)
	r.CounterVec("ops_total", "", "party", "op").With("1", "exp").Inc()
	mux := AdminMux(r)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "msgs_total 7") || !strings.Contains(body, `ops_total{party="1",op="exp"} 1`) {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "starting") {
		t.Fatalf("/healthz before a source = %d %q, want 503 starting", code, body)
	}

	src := &fakeHealth{peers: []PeerHealth{
		{Peer: 1, State: StateConnected, LastContactMS: 3},
		{Peer: 2, State: StateConnected, LastContactMS: 5},
	}}
	r.SetHealthSource(src)
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz all-connected = %d %q, want 200 ok", code, body)
	}

	src.mu.Lock()
	src.peers[1].State = StateDead
	src.mu.Unlock()
	code, body := get("/healthz")
	if code != 503 || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("/healthz with a dead peer = %d %q, want 503 degraded", code, body)
	}
	if !strings.Contains(body, `"peer":2`) || !strings.Contains(body, `"dead"`) {
		t.Fatalf("/healthz does not name the dead peer: %q", body)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
}
