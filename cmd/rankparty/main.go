// Command rankparty runs ONE party of the complete privacy-preserving
// group-ranking framework over real TCP, so the initiator and the n
// participants can run as separate processes (or machines) — the
// paper's fully distributed deployment of all three phases: masked
// dot-product gain computation, identity-unlinkable comparison, and
// top-k submission with over-claim detection.
//
// Index 0 of -addrs is the initiator; indices 1..n are participants.
// Every process passes the same -addrs, -attrs and protocol parameters
// (a pre-crypto session handshake aborts the run if they disagree);
// the private inputs differ per role:
//
//	rankparty -addrs :9001,:9002,:9003,:9004 -me 0 -attrs age:eq,income:gt \
//	          -values 30,0 -weights 2,1 -k 2        # initiator: criterion + weights
//	rankparty -addrs :9001,:9002,:9003,:9004 -me 1 -attrs age:eq,income:gt \
//	          -values 30,50                          # participant: private profile
//	...
//
// The initiator prints the top-k submissions it received; each
// participant prints only its own rank.
//
// With -journal DIR the party runs under the crash-recovery runtime:
// the session is journaled durably, disconnected peers are redialed
// instead of blamed immediately, and a killed process restarted with
// the same flags resumes the in-flight session from its journal. The
// -fault-* flags inject deterministic message faults into this party's
// endpoint for chaos testing.
//
// With -admin ADDR the party serves live telemetry over HTTP while the
// run is in flight: /metrics (Prometheus text exposition of transport,
// journal and protocol counters), /healthz (per-peer link state, 200
// only when every peer is connected) and /debug/pprof. Traces written
// with -trace carry the run-level trace ID agreed in the session
// handshake; ranktrace merges the per-party files into one timeline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"groupranking"
	"groupranking/internal/telemetry"
	"groupranking/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("rankparty: ")
	var (
		addrsFlag = flag.String("addrs", "", "comma-separated listen addresses of all parties in index order; index 0 is the initiator")
		me        = flag.Int("me", -1, "this party's index into -addrs (0 = initiator)")
		attrsFlag = flag.String("attrs", "", "agreed questionnaire: comma-separated name:kind entries with kind eq or gt (eq entries first)")
		valFlag   = flag.String("values", "", "this party's private values: the criterion (initiator) or the profile (participant)")
		wtFlag    = flag.String("weights", "", "the initiator's private criterion weights (initiator only)")
		k         = flag.Int("k", 3, "agreed top-k cut")
		d1        = flag.Int("d1", 15, "agreed attribute value bits")
		d2        = flag.Int("d2", 10, "agreed weight bits")
		h         = flag.Int("h", 15, "agreed mask bits")
		groupName = flag.String("group", "secp160r1", "agreed DDH group")
		sorter    = flag.String("sorter", "unlinkable", "agreed phase-2 sorter: unlinkable or secret-sharing")
		seed      = flag.String("seed", "", "deterministic seed (testing only; empty = crypto/rand)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "protocol deadline and per-receive bound")
		workers   = flag.Int("workers", 0, "goroutines for this party's crypto hot loops (0 = all CPUs, 1 = serial)")
		traceFile = flag.String("trace", "", "write this party's JSONL span trace to this file (- for stderr); written even on abort")
		metrics   = flag.Bool("metrics", false, "print this party's per-phase summary table to stderr")
		admin     = flag.String("admin", "", "serve live telemetry on this address while the run is in flight: /metrics (Prometheus text), /healthz (per-peer link state), /debug/pprof")
		straggle  = flag.Duration("straggle", 0, "testing: sleep this long at the start of every phase, making this party the run's straggler in the merged trace")

		journalDir = flag.String("journal", "", "enable crash recovery: journal the session durably into this directory; restart with the same flags to resume")
		grace      = flag.Duration("grace", 0, "how long a disconnected peer may take to reconnect before it is blamed (default 15s; needs -journal)")
		blameOut   = flag.String("blame-out", "", "on abort, write the blame certificate as JSON to this file (- for stderr) for offline verification")

		faultSeed    = flag.Int64("fault-seed", 0, "seed for the fault-injection schedule (reproducible chaos)")
		faultDrop    = flag.Float64("fault-drop", 0, "per-message drop probability [0, 1]")
		faultDup     = flag.Float64("fault-dup", 0, "per-message duplication probability [0, 1]")
		faultReorder = flag.Float64("fault-reorder", 0, "per-message reorder probability [0, 1]")
		faultCorrupt = flag.Float64("fault-corrupt", 0, "per-message corruption probability [0, 1]")
		faultDelay   = flag.Float64("fault-delay", 0, "per-message delay probability [0, 1]")
		crashParty   = flag.Int("fault-crash-party", -1, "party index to crash (-1 = none; 0 = initiator)")
		crashRound   = flag.Int("fault-crash-round", 0, "round at which the crashed party dies")
		equivocate   = flag.Bool("fault-equivocate", false, "Byzantine demo: THIS party equivocates on its broadcasts (honest peers must abort and blame it)")

		wireCodec = flag.Int("wire-codec", 0, "testing: announce this wire-codec version in session establishment (0 = this build's version); mismatched parties refuse the session")
	)
	flag.Parse()

	if *timeout < 0 {
		log.Printf("-timeout %v is negative (0 means the default deadline)", *timeout)
		return 2
	}
	if *grace < 0 {
		log.Printf("-grace %v is negative (0 means the 15s default)", *grace)
		return 2
	}
	if *straggle < 0 {
		log.Printf("-straggle %v is negative", *straggle)
		return 2
	}

	addrs := strings.Split(*addrsFlag, ",")
	if *addrsFlag == "" || len(addrs) < 3 {
		log.Print("need -addrs with the initiator plus at least two participants (three addresses)")
		return 2
	}
	if *me < 0 || *me >= len(addrs) {
		log.Printf("-me %d outside the address list (%d entries)", *me, len(addrs))
		return 2
	}
	q, err := parseAttrs(*attrsFlag)
	if err != nil {
		log.Print(err)
		return 2
	}
	values, err := parseInts(*valFlag, "-values")
	if err != nil {
		log.Print(err)
		return 2
	}
	if len(values) != q.M() {
		log.Printf("-values has %d entries, -attrs has %d", len(values), q.M())
		return 2
	}

	opts := groupranking.Options{
		GroupName: *groupName,
		K:         *k,
		D1:        *d1, D2: *d2, H: *h,
		Seed:      *seed,
		WireCodec: *wireCodec,
		Runtime:   groupranking.Runtime{Timeout: *timeout, Workers: *workers},
	}
	if *journalDir != "" {
		opts.Recovery = &groupranking.RecoveryOptions{Dir: *journalDir, Grace: *grace}
	} else if *grace != 0 {
		log.Print("-grace needs -journal (crash recovery is off without a journal directory)")
		return 2
	}
	if *faultDrop > 0 || *faultDup > 0 || *faultReorder > 0 || *faultCorrupt > 0 ||
		*faultDelay > 0 || *crashParty >= 0 || *equivocate {
		plan := &groupranking.FaultPlan{
			Seed:      *faultSeed,
			Drop:      *faultDrop,
			Duplicate: *faultDup,
			Reorder:   *faultReorder,
			Corrupt:   *faultCorrupt,
			Delay:     *faultDelay,
		}
		if *crashParty >= 0 {
			plan.Rules = append(plan.Rules, groupranking.CrashAt(*crashParty, *crashRound))
		}
		if *equivocate {
			// The fault net sits at this party's own endpoint, so the
			// equivocation is injected into this party's outgoing
			// broadcast legs — the honest peers' echo sub-round must
			// catch it and blame this party.
			plan.Rules = append(plan.Rules, groupranking.FaultRule{
				Kind: transport.FaultEquivocate, Round: -1, From: *me, To: -1,
			})
		}
		opts.Faults = plan
	}
	switch *sorter {
	case "unlinkable":
		opts.Sorter = groupranking.Unlinkable
	case "secret-sharing":
		opts.Sorter = groupranking.SecretSharing
	default:
		log.Printf("unknown -sorter %q (want unlinkable or secret-sharing)", *sorter)
		return 2
	}
	// The admin endpoint and the straggler hook both live on the
	// observer, so either flag forces one on.
	var obs *groupranking.Observer
	if *traceFile != "" || *metrics || *admin != "" || *straggle > 0 {
		obs = groupranking.NewObserver()
		opts.Observer = obs
	}
	if *straggle > 0 {
		delay := *straggle
		obs.SetBeginHook(func(party int, phase string) { time.Sleep(delay) })
	}
	if *admin != "" {
		tel := groupranking.NewTelemetry()
		opts.Telemetry = tel
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Printf("-admin: %v", err)
			return 2
		}
		srv := &http.Server{Handler: telemetry.AdminMux(tel, obs.WritePrometheus)}
		go srv.Serve(ln)
		defer srv.Close()
		log.Printf("admin endpoint on http://%s (/metrics, /healthz, /debug/pprof)", ln.Addr())
	}
	report := func() {
		if obs == nil {
			return
		}
		if *traceFile != "" {
			out := os.Stderr
			if *traceFile != "-" {
				f, err := os.Create(*traceFile)
				if err != nil {
					log.Printf("trace: %v", err)
				} else {
					defer f.Close()
					out = f
				}
			}
			if err := obs.WriteJSONL(out); err != nil {
				log.Printf("trace: %v", err)
			}
		}
		if *metrics {
			obs.WriteSummary(os.Stderr)
		}
	}

	if *me == 0 {
		weights, err := parseInts(*wtFlag, "-weights")
		if err != nil {
			log.Print(err)
			return 2
		}
		if len(weights) != q.M() {
			log.Printf("-weights has %d entries, -attrs has %d", len(weights), q.M())
			return 2
		}
		crit := groupranking.Criterion{Values: values, Weights: weights}
		res, err := groupranking.RankInitiatorParty(context.Background(), q, crit, addrs, opts)
		report()
		if err != nil {
			return fail(err, addrs, *blameOut)
		}
		if obs != nil {
			log.Printf("trace id %s", res.TraceID)
		}
		fmt.Printf("initiator: received %d top-%d submissions over %d rounds (%d bytes sent)\n",
			len(res.Submissions), opts.K, res.Rounds, res.BytesOnWire)
		for _, s := range res.Submissions {
			fmt.Printf("  rank %d: participant %d, profile %v, recomputed gain %v\n",
				s.ClaimedRank, s.Participant+1, s.Profile.Values, s.Gain)
		}
		for _, p := range res.Suspicious {
			fmt.Printf("  SUSPICIOUS: participant %d's claimed rank contradicts its submitted profile\n", p+1)
		}
		return 0
	}

	if *wtFlag != "" {
		log.Print("-weights is initiator-only (participants hold no criterion)")
		return 2
	}
	profile := groupranking.Profile{Values: values}
	res, err := groupranking.RankParticipantParty(context.Background(), q, addrs, *me, profile, opts)
	report()
	if err != nil {
		return fail(err, addrs, *blameOut)
	}
	if obs != nil {
		log.Printf("trace id %s", res.TraceID)
	}
	fmt.Printf("party %d: my gain ranks #%d among %d participants (1 = best)\n", *me, res.Rank, len(addrs)-1)
	if res.Rank <= opts.K {
		fmt.Printf("party %d: ranked in the top %d — profile submitted to the initiator\n", *me, opts.K)
	}
	return 0
}

// fail prints the abort protocol's diagnosis, writes the blame
// certificate (when the abort carries one and -blame-out names a
// destination), and returns the exit code.
func fail(err error, addrs []string, blameOut string) int {
	var abort *transport.AbortError
	if errors.As(err, &abort) {
		switch {
		case errors.Is(err, groupranking.ErrSessionMismatch):
			log.Printf("aborting: session handshake failed — %v", err)
		case errors.Is(err, transport.ErrPeerDown) && abort.Party >= 0 && abort.Party < len(addrs):
			log.Printf("aborting: party %d (address %s) is down — %v", abort.Party, addrs[abort.Party], err)
		case errors.Is(err, transport.ErrTimeout):
			log.Printf("aborting: timed out waiting for party %d — %v", abort.Party, err)
		default:
			log.Printf("aborting: %v", err)
		}
		writeBlame(err, blameOut)
		return 1
	}
	log.Print(err)
	return 1
}

// writeBlame serialises the abort's blame certificate for offline
// verification (internal/blame confirms it with no access to this
// process's protocol state).
func writeBlame(err error, blameOut string) {
	cert := transport.CertOf(err)
	if cert == nil {
		if blameOut != "" {
			log.Print("no blame certificate to write (this abort carries no evidence)")
		}
		return
	}
	log.Printf("blame certificate: %s", cert)
	if blameOut == "" {
		return
	}
	data, merr := cert.MarshalJSON()
	if merr != nil {
		log.Printf("blame certificate: %v", merr)
		return
	}
	data = append(data, '\n')
	if blameOut == "-" {
		os.Stderr.Write(data)
		return
	}
	if werr := os.WriteFile(blameOut, data, 0o644); werr != nil {
		log.Printf("blame certificate: %v", werr)
		return
	}
	log.Printf("blame certificate written to %s", blameOut)
}

// parseAttrs builds the agreed questionnaire from name:kind entries
// ("age:eq,income:gt"); a bare kind ("eq,gt") names attributes a0,a1,…
func parseAttrs(s string) (*groupranking.Questionnaire, error) {
	if s == "" {
		return nil, fmt.Errorf("need -attrs (e.g. -attrs age:eq,income:gt)")
	}
	var attrs []groupranking.Attribute
	for i, entry := range strings.Split(s, ",") {
		name := fmt.Sprintf("a%d", i)
		kind := entry
		if c := strings.SplitN(entry, ":", 2); len(c) == 2 {
			name, kind = c[0], c[1]
		}
		switch kind {
		case "eq":
			attrs = append(attrs, groupranking.Attribute{Name: name, Kind: groupranking.EqualTo})
		case "gt":
			attrs = append(attrs, groupranking.Attribute{Name: name, Kind: groupranking.GreaterThan})
		default:
			return nil, fmt.Errorf("attribute %q: kind %q is not eq or gt", entry, kind)
		}
	}
	return groupranking.NewQuestionnaire(attrs)
}

// parseInts parses a comma-separated int64 list.
func parseInts(s, flagName string) ([]int64, error) {
	if s == "" {
		return nil, fmt.Errorf("need %s (comma-separated integers)", flagName)
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s entry %q: %v", flagName, p, err)
		}
		out[i] = v
	}
	return out, nil
}
