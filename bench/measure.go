package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// processStart approximates when this process started: where a cold
// set-up is counted from.
var processStart = time.Now()

// bench is one workload process: the system under test, the position in
// the input stream, and what set-up measured.
type bench struct {
	sys     *system
	seed    string
	next    atomic.Int64 // index of the next ranking's inputs
	scratch string       // this process's temp directory
	setupS  float64
	drainS  float64
}

// section is one measured stretch of closed-loop rankings.
type section struct {
	attempted int
	verified  []outcome
	failures  []string  // "<ranking id>: <error>"
	wall      float64   // seconds
	cpu       float64   // CPU seconds of the system under test
	cpuByPid  []float64 // the same, one entry per process
	driverCPU float64   // CPU seconds of this process, the load generator
	// rss holds the resident set size of the system under test, in MiB
	// summed over its processes, sampled every rssInterval until the
	// workload's rssRankings-th ranking was verified. Stopping at a fixed
	// amount of work keeps what daemons retain per session comparable
	// between a fast and a slow build.
	rss []float64
}

func (s section) latencies() []float64 {
	out := make([]float64, len(s.verified))
	for i, o := range s.verified {
		out[i] = o.latency.Seconds()
	}
	return out
}

// pids names the processes of the system under test: the daemons, or
// this process when the library runs in it.
func (s *system) pids() []int {
	if s.mesh != nil {
		return s.mesh.pids()
	}
	return []int{os.Getpid()}
}

func cpuSeconds(pids []int) ([]float64, error) {
	out := make([]float64, len(pids))
	for i, pid := range pids {
		var err error
		if out[i], err = procCPUSeconds(pid); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// run drives the workload's callers in a closed loop — each starts its
// next ranking when its last one returned — until count rankings have
// been started (count > 0) or dur has passed (dur > 0).
func (b *bench) run(ctx context.Context, count int, dur time.Duration, parent int) (section, error) {
	var (
		sec     section
		mu      sync.Mutex
		wg      sync.WaitGroup
		started atomic.Int64
	)
	pids := b.sys.pids()
	cpu0, err := cpuSeconds(pids)
	if err != nil {
		return sec, err
	}
	driver0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return sec, err
	}
	stopSampling, err := sampleRSS(pids, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sec.verified) < b.sys.spec.rssRankings
	})
	if err != nil {
		return sec, err
	}
	start := time.Now()
	for c := 0; c < b.sys.spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				if count > 0 && started.Add(1) > int64(count) {
					return
				}
				in, err := b.sys.spec.inputs(b.seed, int(b.next.Add(1)-1))
				var out outcome
				if err == nil {
					id, end := b.sys.trace.begin(parent, spanRanking, in.id, in.id, -1)
					out, err = b.sys.rank(ctx, in, id)
					end()
				}
				mu.Lock()
				sec.attempted++
				if err != nil {
					sec.failures = append(sec.failures, fmt.Sprintf("%s: %v", in.id, err))
				} else {
					sec.verified = append(sec.verified, out)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sec.wall = time.Since(start).Seconds()
	if sec.rss, err = stopSampling(); err != nil {
		return sec, err
	}
	cpu1, err := cpuSeconds(pids)
	if err != nil {
		return sec, err
	}
	driver1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return sec, err
	}
	sec.cpuByPid = make([]float64, len(pids))
	for i := range pids {
		sec.cpuByPid[i] = cpu1[i] - cpu0[i]
		sec.cpu += sec.cpuByPid[i]
	}
	sec.driverCPU = driver1 - driver0
	return sec, ctx.Err()
}

// setUp takes a fresh process to the state a caller is in after its
// first ranking: inputs generated, daemons started and answering, the
// group's first-use tables built by the warm-up rankings. setup_s is
// counted from since.
func setUp(ctx context.Context, spec workloadSpec, seed string, since time.Time) (*bench, error) {
	b := &bench{sys: &system{spec: spec}, seed: seed}
	var err error
	if b.scratch, err = os.MkdirTemp(os.Getenv("BENCH_SCRATCH"), "run-"); err != nil {
		return nil, err
	}
	if err := b.startMesh(ctx, false); err != nil {
		b.close()
		return nil, err
	}
	warm, err := b.run(ctx, spec.warmups, 0, 0)
	if err == nil && len(warm.failures) > 0 {
		err = fmt.Errorf("warm-up ranking failed: %s", warm.failures[0])
	}
	if err != nil {
		b.close()
		return nil, err
	}
	b.setupS = time.Since(since).Seconds()
	return b, nil
}

// startMesh starts the workload's daemons, if it has any, under a new
// journal directory. With admin they serve /metrics: a traced run.
func (b *bench) startMesh(ctx context.Context, admin bool) error {
	if b.sys.spec.kind != rankdMesh {
		return nil
	}
	rankd, err := rankdBinary()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.scratch, "journals-")
	if err != nil {
		return err
	}
	b.sys.mesh, err = startMesh(ctx, rankd, dir, b.sys.spec.n+1, admin)
	return err
}

// stopMesh drains the daemons, requiring exit 0 from each.
func (b *bench) stopMesh() error {
	if b.sys.mesh == nil {
		return nil
	}
	var err error
	b.drainS, err = b.sys.mesh.drain()
	b.sys.mesh = nil
	return err
}

// close kills what still runs and removes the temp directory.
func (b *bench) close() {
	if b.sys.mesh != nil {
		b.sys.mesh.kill()
	}
	os.RemoveAll(b.scratch)
}

// rssInterval is how often a section samples resident memory.
const rssInterval = 50 * time.Millisecond

// sampleRSS samples the summed resident set size of the processes, once
// at once — so that even a section shorter than the interval has a
// sample — and then every rssInterval while wanted() holds. The
// returned function stops the sampling and hands over the samples.
func sampleRSS(pids []int, wanted func() bool) (stop func() ([]float64, error), err error) {
	first, err := sumStatusMiB(pids, "VmRSS:")
	if err != nil {
		return nil, err
	}
	samples := []float64{first}
	stopped := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopped:
				done <- nil
				return
			case <-tick.C:
			}
			if !wanted() {
				continue
			}
			v, err := sumStatusMiB(pids, "VmRSS:")
			if err != nil {
				done <- err
				return
			}
			samples = append(samples, v)
		}
	}()
	return func() ([]float64, error) {
		close(stopped)
		err := <-done
		return samples, err
	}, nil
}

// sumStatusMiB sums one memory field of /proc/<pid>/status over the
// processes: "VmRSS:" is resident now, "VmHWM:" the peak so far.
func sumStatusMiB(pids []int, field string) (float64, error) {
	sum := 0.0
	for _, pid := range pids {
		v, err := procStatusMiB(pid, field)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
