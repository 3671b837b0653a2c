package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// perLayerMetrics are the single-layer figures of the traced run, named
// <layer>.<metric> after this repository's packages. README.md says
// which end-to-end metric each is expected to move, and where. A layer
// a workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	// group: counts over all parties, unit costs for the workload's
	// group as group.ByName resolves it.
	{name: "group.exps_per_ranking", unit: "count", better: "lower"},
	{name: "group.ops_per_ranking", unit: "count", better: "lower"},
	{name: "group.invs_per_ranking", unit: "count", better: "lower"},
	{name: "group.exp_us", unit: "us", better: "lower"},
	{name: "group.expgen_us", unit: "us", better: "lower"},
	{name: "group.op_us", unit: "us", better: "lower"},
	{name: "group.exp_allocs", unit: "count", better: "lower"},
	{name: "group.fastpath_gap", unit: "ratio", better: "lower"},
	{name: "group.cpu_share", unit: "ratio", better: "lower"},

	{name: "elgamal.encs_per_ranking", unit: "count", better: "lower"},
	{name: "elgamal.decs_per_ranking", unit: "count", better: "lower"},
	{name: "elgamal.encrypt_us", unit: "us", better: "lower"},
	{name: "elgamal.rerandomize_us", unit: "us", better: "lower"},
	{name: "elgamal.partial_decrypt_us", unit: "us", better: "lower"},
	{name: "elgamal.exponent_blind_us", unit: "us", better: "lower"},
	{name: "elgamal.append_encode_ns", unit: "ns", better: "lower"},

	{name: "zkp.proofs_made_per_ranking", unit: "count", better: "lower"},
	{name: "zkp.proofs_checked_per_ranking", unit: "count", better: "lower"},
	{name: "zkp.prove_us", unit: "us", better: "lower"},
	{name: "zkp.verify_us", unit: "us", better: "lower"},
	{name: "zkp.equality_prove_us", unit: "us", better: "lower"},
	{name: "zkp.equality_verify_us", unit: "us", better: "lower"},

	{name: "dotprod.field_muls_per_ranking", unit: "count", better: "lower"},
	{name: "dotprod.exchange_us", unit: "us", better: "lower"},

	// Phase times: the busiest party's time outside receives, median
	// over rankings.
	{name: "core.session_s", unit: "s", better: "lower"},
	{name: "core.gain_s", unit: "s", better: "lower"},
	{name: "core.submission_s", unit: "s", better: "lower"},
	{name: "unlinksort.keygen_s", unit: "s", better: "lower"},
	{name: "unlinksort.key_proof_s", unit: "s", better: "lower"},
	{name: "unlinksort.publish_bits_s", unit: "s", better: "lower"},
	{name: "unlinksort.compare_s", unit: "s", better: "lower"},
	{name: "unlinksort.chain_s", unit: "s", better: "lower"},
	{name: "unlinksort.final_set_s", unit: "s", better: "lower"},

	{name: "ssmpc.muls_per_ranking", unit: "count", better: "lower"},
	{name: "ssmpc.opens_per_ranking", unit: "count", better: "lower"},
	{name: "ssmpc.rounds_per_ranking", unit: "count", better: "lower"},
	{name: "ssmpc.sort_s", unit: "s", better: "lower"},
	{name: "ssmpc.mul_open_us", unit: "us", better: "lower"},

	{name: "kernel.speedup", unit: "ratio", better: "higher"},
	{name: "kernel.map_overhead_ns", unit: "ns", better: "lower"},

	{name: "wirecodec.encode_ns_per_kb", unit: "ns/KiB", better: "lower"},
	{name: "wirecodec.decode_ns_per_kb", unit: "ns/KiB", better: "lower"},
	{name: "wirecodec.encode_allocs", unit: "count", better: "lower"},
	{name: "wirecodec.bytes_per_msg", unit: "B", better: "lower"},

	{name: "transport.msgs_per_ranking", unit: "count", better: "lower"},
	{name: "transport.echo_msgs_per_ranking", unit: "count", better: "lower"},
	{name: "transport.echo_bytes_per_ranking", unit: "B", better: "lower"},
	{name: "transport.recv_wait_s", unit: "s", better: "lower"},
	{name: "transport.mesh_setup_ms", unit: "ms", better: "lower"},
	{name: "transport.tcp_rtt_us", unit: "us", better: "lower"},
	{name: "transport.mux_rtt_us", unit: "us", better: "lower"},
	{name: "transport.fabric_rtt_us", unit: "us", better: "lower"},
	{name: "transport.mux_frames_per_ranking", unit: "count", better: "lower"},
	{name: "transport.link_connects_per_peer", unit: "count", better: "lower"},

	{name: "journal.appends_per_ranking", unit: "count", better: "lower"},
	{name: "journal.bytes_per_ranking", unit: "B", better: "lower"},
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.fsync_us", unit: "us", better: "lower"},
	{name: "journal.open_replay_ms", unit: "ms", better: "lower"},

	// service and api, timed from the client's side.
	{name: "service.create_p50_ms", unit: "ms", better: "lower"},
	{name: "service.submit_p50_ms", unit: "ms", better: "lower"},
	{name: "service.wait_p50_ms", unit: "ms", better: "lower"},
	{name: "service.polls_per_ranking", unit: "count", better: "lower"},
	{name: "service.retries_per_ranking", unit: "count", better: "lower"},
	{name: "service.initiator_cpu_s_per_ranking", unit: "s", better: "lower"},
	{name: "service.participant_cpu_s_per_ranking", unit: "s", better: "lower"},
	{name: "service.ready_s", unit: "s", better: "lower"},
	{name: "service.drain_s", unit: "s", better: "lower"},

	{name: "obsv.overhead_share", unit: "ratio", better: "lower"},
	{name: "go.alloc_mb_per_ranking", unit: "MiB", better: "lower"},
	{name: "go.mallocs_per_ranking", unit: "count", better: "lower"},
	{name: "go.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},

	// The ledger: count × unit cost against the measured CPU time.
	{name: "ledger.group_cpu_s", unit: "s", better: "lower"},
	{name: "ledger.codec_cpu_s", unit: "s", better: "lower"},
	{name: "ledger.journal_cpu_s", unit: "s", better: "lower"},
	{name: "ledger.residual_share", unit: "ratio", better: "lower"},

	{name: "host.nproc", unit: "count", better: "higher"},
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.ref_exp_us", unit: "us", better: "lower"},
}

// phaseMetrics maps an Observer phase name to the metric that reports
// its wall time.
var phaseMetrics = map[string]string{
	"session":      "core.session_s",
	"gain":         "core.gain_s",
	"submission":   "core.submission_s",
	"keygen":       "unlinksort.keygen_s",
	"key-proof":    "unlinksort.key_proof_s",
	"publish-bits": "unlinksort.publish_bits_s",
	"compare":      "unlinksort.compare_s",
	"chain":        "unlinksort.chain_s",
	"final-set":    "unlinksort.final_set_s",
	"ssmpc":        "ssmpc.sort_s",
}

// countMetrics maps an Observer counter to the metric that reports it
// per ranking, summed over all parties.
var countMetrics = map[string]string{
	"group_exp":       "group.exps_per_ranking",
	"group_op":        "group.ops_per_ranking",
	"group_inv":       "group.invs_per_ranking",
	"elgamal_enc":     "elgamal.encs_per_ranking",
	"elgamal_dec":     "elgamal.decs_per_ranking",
	"proofs_made":     "zkp.proofs_made_per_ranking",
	"proofs_checked":  "zkp.proofs_checked_per_ranking",
	"field_mul":       "dotprod.field_muls_per_ranking",
	"ss_mul":          "ssmpc.muls_per_ranking",
	"ss_open":         "ssmpc.opens_per_ranking",
	"msgs_sent":       "transport.msgs_per_ranking",
	"echo_msgs_sent":  "transport.echo_msgs_per_ranking",
	"echo_bytes_sent": "transport.echo_bytes_per_ranking",
}

// phaseTotals is what the phase spans of a set of rankings add up to.
type phaseTotals struct {
	rankings int
	counts   map[string]float64   // counter → total over parties and rankings
	phases   map[string][]float64 // phase → per ranking, the busiest party's busy seconds
	recvWait []float64            // per ranking, the slowest party's seconds blocked in receives
	ssRounds []float64            // per ranking, the most SS rounds any party ran
}

// sumPhases folds the phase spans by ranking and party.
func sumPhases(spans []span) phaseTotals {
	type key struct {
		ranking string
		party   int
	}
	t := phaseTotals{counts: map[string]float64{}, phases: map[string][]float64{}}
	phase := map[string]map[key]float64{} // phase → ranking, party → seconds
	wait, rounds := map[key]float64{}, map[key]float64{}
	rankings := map[string]bool{}
	for _, s := range spans {
		if s.Kind != spanPhase {
			continue
		}
		k := key{s.Ranking, s.Party}
		rankings[s.Ranking] = true
		if phase[s.Name] == nil {
			phase[s.Name] = map[key]float64{}
		}
		// A phase's time is its busy time: what it spent blocked in
		// receives is waiting for another party's work, reported once,
		// as recv_wait.
		phase[s.Name][k] += float64(s.DurUS-s.Counts["recv_wait_us"]) / 1e6
		for name, c := range s.Counts {
			t.counts[name] += float64(c)
		}
		wait[k] += float64(s.Counts["recv_wait_us"]) / 1e6
		rounds[k] += float64(s.Counts["ss_round"])
	}
	t.rankings = len(rankings)
	slowest := func(byParty map[key]float64) []float64 {
		worst := map[string]float64{}
		for k, v := range byParty {
			worst[k.ranking] = max(worst[k.ranking], v)
		}
		out := make([]float64, 0, len(worst))
		for _, v := range worst {
			out = append(out, v)
		}
		return out
	}
	for name, byParty := range phase {
		t.phases[name] = slowest(byParty)
	}
	t.recvWait, t.ssRounds = slowest(wait), slowest(rounds)
	return t
}

// tracedRun measures and prints the per-layer metrics of one workload.
func tracedRun(ctx context.Context, spec workloadSpec, cfg config) error {
	r, err := traced(ctx, spec, cfg)
	if err != nil {
		return err
	}
	return r.print(os.Stdout)
}

// tracedSections is what the three measured stretches of a traced run
// leave behind.
type tracedSections struct {
	untraced section // the base for the tracing overhead and the ledger's CPU time
	observed section // an Observer on every call, or daemons serving /metrics
	serial   section // Workers=1; empty for rankd, whose flag stays at its default

	spans          []span
	before, after  []promSample     // the daemons' /metrics around the observed section
	mem0, mem1     runtime.MemStats // this process around the observed section
	polls, retried int64            // what the clients sent the observed mesh, warm-up included
	readyS, drainS float64          // the observed mesh's start and stop
	peakRSS        float64          // Σ VmHWM at the end of the observed section
}

// runTracedSections runs the workload three times over, each for a
// share of -seconds.
func runTracedSections(ctx context.Context, b *bench, cfg config) (tracedSections, error) {
	var ts tracedSections
	var err error
	if ts.untraced, err = b.run(ctx, 0, cfg.duration(0.3), 0); err != nil {
		return ts, err
	}
	if b.sys.mesh != nil {
		if err := b.stopMesh(); err != nil {
			return ts, err
		}
		if err := b.startMesh(ctx, true); err != nil {
			return ts, err
		}
		if _, err := b.run(ctx, b.sys.spec.warmups, 0, 0); err != nil {
			return ts, err
		}
		ts.readyS = b.sys.mesh.readyS
		if ts.before, err = b.sys.mesh.scrape(ctx); err != nil {
			return ts, err
		}
	}

	b.sys.trace = newTracer()
	runtime.ReadMemStats(&ts.mem0)
	root, end := b.sys.trace.begin(0, spanWorkload, b.sys.spec.name, "", -1)
	ts.observed, err = b.run(ctx, 0, cfg.duration(0.3), root)
	end()
	runtime.ReadMemStats(&ts.mem1)
	ts.spans = b.sys.trace.finish()
	b.sys.trace = nil
	if err != nil {
		return ts, err
	}
	if ts.peakRSS, err = sumStatusMiB(b.sys.pids(), "VmHWM:"); err != nil {
		return ts, err
	}

	if b.sys.mesh != nil {
		if ts.after, err = b.sys.mesh.scrape(ctx); err != nil {
			return ts, err
		}
		ts.polls, ts.retried = b.sys.mesh.http.polls.Load(), b.sys.mesh.http.retried.Load()
		err = b.stopMesh()
		ts.drainS = b.drainS
		return ts, err
	}
	b.sys.workers = 1
	ts.serial, err = b.run(ctx, 0, cfg.duration(0.15), 0)
	b.sys.workers = 0
	return ts, err
}

// traced measures the per-layer metrics of one workload: the three
// sections, then the calibration pass, then the join of the traced
// counts with the unit costs into the ledger.
func traced(ctx context.Context, spec workloadSpec, cfg config) (measurement, error) {
	r := measurement{title: spec.name + " (traced)", defs: perLayerMetrics}
	b, err := setUp(ctx, spec, cfg.seed, processStart)
	if err != nil {
		return r, err
	}
	defer b.close()
	ts, err := runTracedSections(ctx, b, cfg)
	if err != nil {
		return r, err
	}
	for _, sec := range []section{ts.untraced, ts.observed, ts.serial} {
		r.failures = append(r.failures, sec.failures...)
		r.attempted += sec.attempted
	}
	r.samples = len(ts.observed.verified)
	if len(ts.untraced.verified) == 0 || r.samples == 0 {
		return r, fmt.Errorf("no ranking was verified; failures: %v", r.failures)
	}

	units, err := calibrate(spec.groupName(), spec.n, b.scratch)
	if err != nil {
		return r, err
	}
	totals := sumPhases(ts.spans)
	if spec.kind == rankdMesh {
		// The daemons publish no per-session operation counts. The spec
		// alone determines them, so they are taken from one in-process
		// ranking of the same spec; the traffic figures come from the
		// daemons' own /metrics.
		if totals, err = shadowCounts(ctx, b); err != nil {
			return r, err
		}
	}
	r.metrics = layerMetrics(spec, ts, totals, units)

	out := cfg.out
	if out == "" {
		out = filepath.Join(filepath.Dir(b.scratch), "trace")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return r, err
	}
	path := filepath.Join(out, "trace-"+spec.name+".jsonl")
	if err := writeTrace(path, ts.spans); err != nil {
		return r, err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(ts.spans), path)
	return r, nil
}

// shadowCounts runs one in-process ranking of b's spec under an
// Observer and returns its phase totals.
func shadowCounts(ctx context.Context, b *bench) (phaseTotals, error) {
	spec := b.sys.spec
	spec.kind = inProcess
	in, err := spec.inputs(b.seed, int(b.next.Add(1)-1))
	if err != nil {
		return phaseTotals{}, err
	}
	sys := &system{spec: spec, trace: newTracer()}
	if _, err := sys.rank(ctx, in, 0); err != nil {
		return phaseTotals{}, fmt.Errorf("in-process ranking of the daemons' spec: %w", err)
	}
	return sumPhases(sys.trace.finish()), nil
}

// layerMetrics derives every per-layer metric. A layer the workload
// does not exercise keeps its 0.
func layerMetrics(spec workloadSpec, ts tracedSections, totals phaseTotals, units metrics) metrics {
	m := metrics{}
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	for name, v := range units {
		m[name] = v
	}
	obs := ts.observed
	n := float64(len(obs.verified))

	perRanking := float64(max(totals.rankings, 1))
	for counter, name := range countMetrics {
		m[name] = totals.counts[counter] / perRanking
	}
	m["ssmpc.rounds_per_ranking"] = mean(totals.ssRounds)
	bytesSent := totals.counts["bytes_sent"] / perRanking

	if spec.kind == rankdMesh {
		delta := func(series string) float64 { return promDelta(ts.before, ts.after, series) / n }
		m["transport.msgs_per_ranking"] = delta("mux_session_msgs_total")
		m["transport.mux_frames_per_ranking"] = delta("mux_data_frames_total")
		m["journal.appends_per_ranking"] = delta("journal_appends_total")
		m["journal.bytes_per_ranking"] = delta("journal_bytes_total")
		bytesSent = delta("mux_session_bytes_total")
		for _, scrape := range ts.after {
			for series, v := range scrape {
				if strings.HasPrefix(series, "mux_link_connects_total") {
					m["transport.link_connects_per_peer"] = max(m["transport.link_connects_per_peer"], v)
				}
			}
		}
		var create, submit, wait []float64
		for _, o := range obs.verified {
			create = append(create, ms(o.create))
			submit = append(submit, ms(o.submit)/float64(spec.n))
			wait = append(wait, ms(o.wait))
		}
		m["service.create_p50_ms"] = median(create)
		m["service.submit_p50_ms"] = median(submit)
		m["service.wait_p50_ms"] = median(wait)
		sessions := float64(obs.attempted + spec.warmups)
		m["service.polls_per_ranking"] = float64(ts.polls) / sessions
		m["service.retries_per_ranking"] = float64(ts.retried) / sessions
		m["service.initiator_cpu_s_per_ranking"] = obs.cpuByPid[0] / n
		m["service.participant_cpu_s_per_ranking"] = mean(obs.cpuByPid[1:]) / n
		m["service.ready_s"], m["service.drain_s"] = ts.readyS, ts.drainS
		m["loadgen.cpu_share"] = obs.driverCPU / obs.cpu
	} else {
		for phase, name := range phaseMetrics {
			m[name] = median(totals.phases[phase])
		}
		m["transport.recv_wait_s"] = median(totals.recvWait)
		m["go.alloc_mb_per_ranking"] = float64(ts.mem1.TotalAlloc-ts.mem0.TotalAlloc) / (1 << 20) / n
		m["go.mallocs_per_ranking"] = float64(ts.mem1.Mallocs-ts.mem0.Mallocs) / n
		// What the kernel's fan-out buys in wall time.
		if len(ts.serial.verified) > 0 {
			m["kernel.speedup"] = median(ts.serial.latencies()) / median(ts.untraced.latencies())
		}
	}
	m["go.peak_rss_mb"] = ts.peakRSS
	if msgs := m["transport.msgs_per_ranking"]; msgs > 0 {
		m["wirecodec.bytes_per_msg"] = bytesSent / msgs
	}
	m["obsv.overhead_share"] = median(obs.latencies())/median(ts.untraced.latencies()) - 1

	// The ledger. obsv does not tell fixed-base from variable-base
	// exponentiations, so the group term prices all of them at the
	// variable-base cost: an upper bound. Time blocked in receives is
	// waiting, not work, and has no term.
	cpu := ts.untraced.cpu / float64(len(ts.untraced.verified))
	m["ledger.group_cpu_s"] = (m["group.exps_per_ranking"]*m["group.exp_us"] + m["group.ops_per_ranking"]*m["group.op_us"]) / 1e6
	m["ledger.codec_cpu_s"] = bytesSent / 1024 * (m["wirecodec.encode_ns_per_kb"] + m["wirecodec.decode_ns_per_kb"]) / 1e9
	m["ledger.journal_cpu_s"] = m["journal.appends_per_ranking"] * m["journal.append_us"] / 1e6
	m["ledger.residual_share"] = 1 - (m["ledger.group_cpu_s"]+m["ledger.codec_cpu_s"]+m["ledger.journal_cpu_s"])/cpu
	m["group.cpu_share"] = m["ledger.group_cpu_s"] / cpu
	return m
}
