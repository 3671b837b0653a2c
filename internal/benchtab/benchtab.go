// Package benchtab regenerates the paper's evaluation artifacts: the
// four parameter-sensitivity curves of Fig. 2, the security-level
// comparison of Fig. 3(a), the networked execution times of Fig. 3(b),
// and the Section VI-B complexity table. Computation figures come from
// the calibrated cost model (operation counts × primitive timings
// measured at startup); the networked figure replays synthetic traces
// over the netsim discrete-event simulator. The -real cross-check runs
// the actual protocol stack at small n.
package benchtab

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"groupranking/internal/core"
	"groupranking/internal/costmodel"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/netsim"
	"groupranking/internal/workload"
)

// Runner holds the measured timings and the output writer.
type Runner struct {
	w  io.Writer
	tm *costmodel.Timings

	// Workers bounds the goroutines the real cross-check runs fan out
	// on per party (0 = NumCPU, 1 = serial); the model columns are
	// unaffected.
	Workers int

	// levels are Fig. 3(a)'s matched DL/EC pairs, 80-bit first: the
	// paper's headline pair, secp160r1 and modp-1024.
	levels []level
}

// level is one security level's pair of groups.
type level struct {
	bits   int
	ec, dl group.Group
}

// New measures primitive timings on this machine and returns a runner.
func New(w io.Writer) (*Runner, error) {
	// Every group is resolved by name, as Rank, rankparty and rankd
	// resolve it: the tables time the path users reach.
	r := &Runner{w: w}
	var groups []group.Group
	for _, lvl := range group.SecurityLevels() {
		ec, err := group.ByName(lvl.EC)
		if err != nil {
			return nil, err
		}
		dl, err := group.ByName(lvl.DL)
		if err != nil {
			return nil, err
		}
		r.levels = append(r.levels, level{bits: lvl.Bits, ec: ec, dl: dl})
		groups = append(groups, ec, dl)
	}
	// 25 samples per group: the min-of-N estimator only needs ONE
	// uninterrupted sample, but when the whole test suite runs in
	// parallel on a small machine, 7 samples were occasionally all
	// polluted by the scheduler and flipped the ECC-vs-DL ordering.
	tm, err := costmodel.MeasureGroups(groups, 25)
	if err != nil {
		return nil, err
	}
	r.tm = tm
	return r, nil
}

// All lists the available artifact names in paper order.
func All() []string {
	return []string{"fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "table-complexity"}
}

// Emit writes one artifact as TSV with a header comment. When real is
// true, a small-n cross-check running the actual protocols is appended
// where applicable.
func (r *Runner) Emit(name string, real bool) error {
	switch name {
	case "fig2a":
		return r.fig2Sweep("Fig. 2(a): participant computation time vs number of participants n",
			"n", []int{5, 10, 15, 20, 25, 30, 35, 40, 45},
			func(v int) costmodel.Setting { s := costmodel.PaperDefaults(); s.N = v; return s }, real)
	case "fig2b":
		return r.fig2Sweep("Fig. 2(b): participant computation time vs attribute dimension m",
			"m", []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
			func(v int) costmodel.Setting { s := costmodel.PaperDefaults(); s.M = v; return s }, real)
	case "fig2c":
		return r.fig2Sweep("Fig. 2(c): participant computation time vs attribute bit length d1",
			"d1", []int{5, 10, 15, 20, 25, 30, 35, 40},
			func(v int) costmodel.Setting { s := costmodel.PaperDefaults(); s.D1 = v; return s }, real)
	case "fig2d":
		return r.fig2Sweep("Fig. 2(d): participant computation time vs mask bit length h",
			"h", []int{5, 10, 15, 20, 25, 30, 35, 40},
			func(v int) costmodel.Setting { s := costmodel.PaperDefaults(); s.H = v; return s }, real)
	case "fig3a":
		return r.fig3a()
	case "fig3b":
		return r.fig3b([]int{10, 20, 30, 40, 50, 60, 70, 79})
	case "table-complexity":
		return r.complexityTable()
	default:
		return fmt.Errorf("benchtab: unknown artifact %q (available: %v)", name, All())
	}
}

// fig2Sweep emits one Fig. 2 curve: the swept parameter against the
// per-participant computation time of the ECC, DL and SS frameworks.
func (r *Runner) fig2Sweep(title, param string, values []int, at func(int) costmodel.Setting, real bool) error {
	fmt.Fprintf(r.w, "# %s\n", title)
	fmt.Fprintf(r.w, "# fixed: %+v (except %s)\n", costmodel.PaperDefaults(), param)
	fmt.Fprintf(r.w, "%s\tecc_sec\tdl_sec\tss_sec\n", param)
	for _, v := range values {
		s := at(v)
		ecc, err := r.tm.OursParticipantSec(r.levels[0].ec, s)
		if err != nil {
			return err
		}
		dl, err := r.tm.OursParticipantSec(r.levels[0].dl, s)
		if err != nil {
			return err
		}
		ss, err := r.ssSec(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.w, "%d\t%.4f\t%.4f\t%.4f\n", v, ecc, dl, ss)
	}
	if real {
		return r.realCrossCheck()
	}
	return nil
}

// ssSec estimates the SS baseline per-party computation, measuring the
// field multiplication lazily for the setting's field size.
func (r *Runner) ssSec(s costmodel.Setting) (float64, error) {
	bits := s.SSFieldBits()
	if _, ok := r.tm.FieldMulSec[bits]; !ok {
		if err := r.tm.MeasureFieldMul(bits, 20000); err != nil {
			return 0, err
		}
	}
	return r.tm.SSParticipantSec(s, bits)
}

// fig3a emits participant time at the three NIST-equivalent security
// levels with n=70 (Section VII, Fig. 3(a)).
func (r *Runner) fig3a() error {
	fmt.Fprintln(r.w, "# Fig. 3(a): participant computation time vs security level, n=70")
	fmt.Fprintln(r.w, "security_bits\tecc_group\tecc_sec\tdl_group\tdl_sec")
	s := costmodel.PaperDefaults()
	s.N = 70
	for _, lvl := range r.levels {
		ecc, err := r.tm.OursParticipantSec(lvl.ec, s)
		if err != nil {
			return err
		}
		dl, err := r.tm.OursParticipantSec(lvl.dl, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.w, "%d\t%s\t%.4f\t%s\t%.4f\n", lvl.bits, lvl.ec.Name(), ecc, lvl.dl.Name(), dl)
	}
	return nil
}

// fig3b replays synthetic traces over the simulated network: the
// paper's random 80-node / 320-edge graph with 2 Mbps, 50 ms duplex
// links, TCP replaced by flow-level store-and-forward queueing.
func (r *Runner) fig3b(ns []int) error {
	fmt.Fprintln(r.w, "# Fig. 3(b): end-to-end execution time on the simulated network (80 nodes, 320 edges)")
	fmt.Fprintln(r.w, "# ss_sec uses the calibrated wire volume (costmodel.SSWireFraction); ss_bytefaithful_sec charges every Nishide-Ohta multiplication to the wire")
	fmt.Fprintln(r.w, "n\tecc_sec\tdl_sec\tss_sec\tss_bytefaithful_sec")
	rng := fixedbig.NewDRBG("fig3b-topology")
	topo, err := netsim.NewRandomTopology(80, 320, rng)
	if err != nil {
		return err
	}
	for _, n := range ns {
		s := costmodel.PaperDefaults()
		s.N = n
		ecc, err := r.oursNetworked(topo, s, r.levels[0].ec)
		if err != nil {
			return err
		}
		dl, err := r.oursNetworked(topo, s, r.levels[0].dl)
		if err != nil {
			return err
		}
		ss, err := r.ssNetworked(topo, s, costmodel.SSWireFraction)
		if err != nil {
			return err
		}
		ssFull, err := r.ssNetworked(topo, s, 1.0)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\n", n, ecc, dl, ss, ssFull)
	}
	return nil
}

// oursNetworked folds per-round computation into the trace replay.
func (r *Runner) oursNetworked(topo *netsim.Topology, s costmodel.Setting, g group.Group) (float64, error) {
	assign, err := netsim.RandomAssignment(topo, s.N+1, fixedbig.NewDRBG(fmt.Sprintf("assign-%d", s.N)))
	if err != nil {
		return 0, err
	}
	rep, err := netsim.NewReplay(topo, netsim.PaperLink(), assign)
	if err != nil {
		return 0, err
	}
	trace := costmodel.OursTrace(s, s.L(), g, 16)
	sec, err := r.tm.OursParticipantSec(g, s)
	if err != nil {
		return 0, err
	}
	perRound := make([]float64, s.N+1)
	rounds := float64(netsim.Rounds(trace))
	for p := 1; p <= s.N; p++ {
		perRound[p] = sec / rounds
	}
	return rep.Run(trace, perRound)
}

// ssNetworked simulates one representative resharing round and scales
// by the layered round count, adding per-round computation. wireFraction
// scales the per-message payload (see costmodel.SSWireFraction).
func (r *Runner) ssNetworked(topo *netsim.Topology, s costmodel.Setting, wireFraction float64) (float64, error) {
	n, l := s.N, s.L()
	assign, err := netsim.RandomAssignment(topo, n+1, fixedbig.NewDRBG(fmt.Sprintf("assign-%d", n)))
	if err != nil {
		return 0, err
	}
	rep, err := netsim.NewReplay(topo, netsim.PaperLink(), assign)
	if err != nil {
		return 0, err
	}
	fieldBytes := (s.SSFieldBits() + 7) / 8
	roundCount := costmodel.SSRoundsNishideOhta(n)
	elems := int(float64(costmodel.SSElemsPerRound(n, l, roundCount)) * wireFraction)
	if elems < 1 {
		elems = 1
	}
	trace := costmodel.SSRoundTrace(n, fieldBytes, elems)
	perRoundNet, err := rep.Run(trace, nil)
	if err != nil {
		return 0, err
	}
	rounds := float64(roundCount)
	computeSec, err := r.ssSec(s)
	if err != nil {
		return 0, err
	}
	return rounds*perRoundNet + computeSec, nil
}

// complexityTable prints the Section VI-B comparison at the paper's
// default setting.
func (r *Runner) complexityTable() error {
	s := costmodel.PaperDefaults()
	l := s.L()
	fmt.Fprintln(r.w, "# Section VI-B complexity comparison at n=25, m=10, d1=15, d2=10, h=15 (l=56)")
	fmt.Fprintln(r.w, "framework\tper_party_ops\tops_kind\trounds\tbytes_per_party\tmax_colluders")
	// Ours: rounds and the busiest participant's sent bytes, from the
	// synthetic trace.
	for _, row := range []struct {
		name string
		g    group.Group
	}{{"ours-ecc", r.levels[0].ec}, {"ours-dl", r.levels[0].dl}} {
		trace := costmodel.OursTrace(s, l, row.g, 16)
		sent := make([]int64, s.N+1)
		for _, ev := range trace {
			sent[ev.From] += int64(ev.Bytes)
		}
		fmt.Fprintf(r.w, "%s\t%d\texponentiations\t%d\t%d\tn-2 = %d\n",
			row.name, costmodel.ParticipantExps(s.N, l), netsim.Rounds(trace), slices.Max(sent[1:]), s.N-2)
	}
	fieldBytes := (s.SSFieldBits() + 7) / 8
	fmt.Fprintf(r.w, "ss-sort\t%d\tfield multiplications\t%d\t%d\t(n-1)/2 = %d\n",
		costmodel.SSFieldMultsPerParty(s.N, l), costmodel.SSRoundsSerial(s.N, l),
		costmodel.SSBytesPerParty(s.N, l, fieldBytes), (s.N-1)/2)
	fmt.Fprintln(r.w, "# asymptotics: ours O(l²n + l·n²·λ) mults, O(n) rounds; SS sort O(l·t·n²·log²n) mults, O((279l+5)·n·log²n) rounds")
	return nil
}

// realCrossCheck runs the full protocol stack at small n and prints
// wall-clock times next to the model's per-participant estimate.
func (r *Runner) realCrossCheck() error {
	ecc := r.levels[0].ec
	fmt.Fprintf(r.w, "# real cross-check: full protocol runs at small n (%s, laptop widths d1=8 d2=5 h=8)\n", ecc.Name())
	fmt.Fprintln(r.w, "n\twall_sec\tmodel_participant_sec")
	for _, n := range []int{3, 4, 5} {
		params := core.Params{
			N: n, M: 4, T: 2, D1: 8, D2: 5, H: 8, K: 2,
			Group: ecc, Workers: r.Workers,
		}
		q, err := workload.Uniform(params.M, params.T)
		if err != nil {
			return err
		}
		rng := fixedbig.NewDRBG(fmt.Sprintf("real-check-%d", n))
		crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
		if err != nil {
			return err
		}
		profiles, err := workload.RandomProfiles(q, n, params.D1, rng)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, _, err := core.RunCtx(context.Background(), params,
			core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}, fmt.Sprintf("real-%d", n), nil); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		// The model uses the conservative in-protocol width for a like
		// comparison.
		model := float64(costmodel.ParticipantExps(n, params.BetaBits())) * r.tm.ExpSec[ecc.Name()]
		fmt.Fprintf(r.w, "%d\t%.2f\t%.2f\n", n, wall, model)
	}
	return nil
}
