// Command rankload drives a rankd daemon mesh with many concurrent
// ranking sessions through the public submit/poll API and reports
// throughput (sessions/sec) and latency (p50/p99). It is the
// acceptance harness for the service deployment: every session is
// seeded and its outcome is checked against the plaintext ground
// truth, and with -metrics the initiator daemon's /metrics endpoint is
// scraped afterwards to assert the whole run shared ONE mesh
// connection per peer pair (mux_link_connects_total == 1), no matter
// how many sessions ran concurrently.
//
//	rankload -apis http://127.0.0.1:9441,http://127.0.0.1:9442,http://127.0.0.1:9443,http://127.0.0.1:9444 \
//	         -sessions 100 -concurrency 16 -metrics http://127.0.0.1:9451
//
// Exits non-zero if any session fails verification or the
// one-connection-per-pair assertion does not hold.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"groupranking"
	"groupranking/internal/api"
)

func main() {
	os.Exit(run())
}

// sessionOutcome is one driven session's measurement.
type sessionOutcome struct {
	latency time.Duration
	err     error
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("rankload: ")
	var (
		apisFlag    = flag.String("apis", "", "comma-separated daemon API base URLs in mesh order; index 0 is the initiator daemon")
		sessions    = flag.Int("sessions", 100, "total sessions to drive")
		concurrency = flag.Int("concurrency", 16, "sessions in flight at once")
		groupName   = flag.String("group", "toy-dl-256", "DDH group for the driven sessions")
		k           = flag.Int("k", 2, "top-k cut for the driven sessions")
		timeout     = flag.Duration("timeout", 5*time.Minute, "overall deadline for the whole load run")
		metricsURL  = flag.String("metrics", "", "initiator daemon's admin base URL; scrape /metrics afterwards and assert one mesh connection per peer pair")
	)
	flag.Parse()

	apis := strings.Split(*apisFlag, ",")
	if *apisFlag == "" || len(apis) < 3 {
		log.Print("need -apis with the initiator daemon plus at least two participant daemons (three URLs)")
		return 2
	}
	if *sessions < 1 || *concurrency < 1 {
		log.Print("need -sessions and -concurrency of at least 1")
		return 2
	}
	n := len(apis) - 1 // participants

	q, err := groupranking.NewQuestionnaire([]groupranking.Attribute{
		{Name: "age", Kind: groupranking.EqualTo},
		{Name: "activity", Kind: groupranking.GreaterThan},
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	clients := make([]*groupranking.Client, len(apis))
	hc := &http.Client{Timeout: 30 * time.Second}
	for i, base := range apis {
		// Retry shed/drain rejections with backoff: a load generator
		// pushing past the admission cap should queue, not fail.
		clients[i] = groupranking.NewClient(base, hc).WithRetry(groupranking.RetryPolicy{MaxAttempts: 8})
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	log.Printf("driving %d sessions (%d concurrent) across the %d-daemon mesh", *sessions, *concurrency, len(apis))
	start := time.Now()
	outcomes := make([]sessionOutcome, *sessions)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcomes[i] = driveSession(ctx, clients, q, i, n, *k, *groupName)
			}
		}()
	}
	for i := 0; i < *sessions; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	latencies := make([]time.Duration, 0, *sessions)
	failed := 0
	for i, out := range outcomes {
		if out.err != nil {
			failed++
			if failed <= 5 {
				log.Printf("session %d: %v", i, out.err)
			}
			continue
		}
		latencies = append(latencies, out.latency)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p50 := latencies[len(latencies)/2]
		p99 := latencies[min(len(latencies)-1, len(latencies)*99/100)]
		fmt.Printf("rankload: %d/%d sessions ok in %v — %.1f sessions/sec, p50 %v, p99 %v\n",
			len(latencies), *sessions, wall.Round(time.Millisecond),
			float64(len(latencies))/wall.Seconds(),
			p50.Round(time.Millisecond), p99.Round(time.Millisecond))
	}
	if failed > 0 {
		log.Printf("%d of %d sessions failed", failed, *sessions)
		return 1
	}
	if *metricsURL != "" {
		if err := assertOneLinkPerPeer(ctx, hc, *metricsURL, len(apis)-1); err != nil {
			log.Print(err)
			return 1
		}
	}
	return 0
}

// driveSession runs one complete session: create at the initiator
// daemon (retrying through the admission cap), submit every
// participant's profile to its own daemon, poll the result, and check
// the top-k submissions against the plaintext ground truth.
func driveSession(ctx context.Context, clients []*groupranking.Client, q *groupranking.Questionnaire, i, n, k int, groupName string) sessionOutcome {
	criterion := groupranking.Criterion{Values: []int64{30, 0}, Weights: []int64{2, 1}}
	profiles := make([]groupranking.Profile, n)
	for j := range profiles {
		profiles[j] = groupranking.Profile{Values: []int64{
			int64(10 + (i+7*j)%50),
			int64((13*i + 29*j) % 100),
		}}
	}
	spec := groupranking.SessionSpec{
		Attributes: q.Attributes(),
		Criterion:  criterion,
		K:          k, D1: 7, D2: 3, H: 5,
		GroupName: groupName,
		Seed:      fmt.Sprintf("load-%d", i),
	}
	start := time.Now()
	id, err := createWithRetry(ctx, clients[0], spec)
	if err != nil {
		return sessionOutcome{err: fmt.Errorf("create: %w", err)}
	}
	for j := 1; j < len(clients); j++ {
		if err := clients[j].Submit(ctx, id, profiles[j-1].Values); err != nil {
			return sessionOutcome{err: fmt.Errorf("submit to daemon %d: %w", j, err)}
		}
	}
	res, err := clients[0].WaitResult(ctx, id, 5*time.Millisecond)
	if err != nil {
		return sessionOutcome{err: fmt.Errorf("result: %w", err)}
	}
	latency := time.Since(start)
	if res.State != groupranking.SessionDone {
		return sessionOutcome{err: fmt.Errorf("session ended %s: %s", res.State, res.Error)}
	}
	if err := verify(q, criterion, profiles, res.Submissions, k); err != nil {
		return sessionOutcome{err: err}
	}
	return sessionOutcome{latency: latency}
}

// createWithRetry retries session creation through admission-cap
// rejections and daemon startup (connection refused) with backoff.
func createWithRetry(ctx context.Context, c *groupranking.Client, spec groupranking.SessionSpec) (string, error) {
	backoff := 20 * time.Millisecond
	for {
		id, err := c.CreateSession(ctx, spec)
		if err == nil {
			return id, nil
		}
		var apiErr *groupranking.APIError
		transient := groupranking.IsAdmissionFull(err) || !errors.As(err, &apiErr)
		if !transient {
			return "", err
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("%w (last attempt: %v)", ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// verify checks the initiator-side submissions against the plaintext
// ground truth rankload itself generated: exactly the top-k
// participants submitted, each with its true rank and its own profile.
func verify(q *groupranking.Questionnaire, criterion groupranking.Criterion, profiles []groupranking.Profile, subs []api.Submission, k int) error {
	expected, err := groupranking.ExpectedRanks(q, criterion, profiles)
	if err != nil {
		return err
	}
	want := make(map[int]int) // participant -> true rank
	for j, r := range expected {
		if r <= k {
			want[j] = r
		}
	}
	if len(subs) != len(want) {
		return fmt.Errorf("got %d submissions, the ground truth has %d participants in the top %d", len(subs), len(want), k)
	}
	for _, s := range subs {
		r, ok := want[s.Participant]
		if !ok {
			return fmt.Errorf("participant %d submitted but is not in the top %d", s.Participant, k)
		}
		if s.ClaimedRank != r {
			return fmt.Errorf("participant %d claimed rank %d, ground truth says %d", s.Participant, s.ClaimedRank, r)
		}
		if !slices.Equal(s.Values, profiles[s.Participant].Values) {
			return fmt.Errorf("participant %d's submitted profile %v does not match its input %v", s.Participant, s.Values, profiles[s.Participant].Values)
		}
	}
	return nil
}

// assertOneLinkPerPeer scrapes the daemon's Prometheus endpoint and
// checks the session mux dialed each peer exactly once for the whole
// run — the tentpole property: N concurrent sessions, one connection
// per peer pair.
func assertOneLinkPerPeer(ctx context.Context, hc *http.Client, base string, peers int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return err
	}
	re := regexp.MustCompile(`(?m)^mux_link_connects_total\{peer="(\d+)"\} (\d+)$`)
	matches := re.FindAllStringSubmatch(string(raw), -1)
	if len(matches) != peers {
		return fmt.Errorf("mux_link_connects_total covers %d peers, want %d", len(matches), peers)
	}
	for _, m := range matches {
		v, _ := strconv.Atoi(m[2])
		if v != 1 {
			return fmt.Errorf("peer %s was dialed %d times; every session must share one connection per peer pair", m[1], v)
		}
		fmt.Printf("rankload: mux_link_connects_total{peer=%q} = %s (one shared connection)\n", m[1], m[2])
	}
	return nil
}
