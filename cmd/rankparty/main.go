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
	"os"
	"strconv"
	"strings"
	"time"

	"groupranking"
	"groupranking/internal/cli"
	"groupranking/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("rankparty: ")
	var shared cli.Flags
	shared.Protocol(flag.CommandLine)
	shared.Observability(flag.CommandLine)
	shared.Faults(flag.CommandLine)
	shared.Deployment(flag.CommandLine)
	var (
		attrsFlag  = flag.String("attrs", "", "agreed questionnaire: comma-separated name:kind entries with kind eq or gt (eq entries first)")
		valFlag    = flag.String("values", "", "this party's private values: the criterion (initiator) or the profile (participant)")
		wtFlag     = flag.String("weights", "", "the initiator's private criterion weights (initiator only)")
		straggle   = flag.Duration("straggle", 0, "testing: sleep this long at the start of every phase, making this party the run's straggler in the merged trace")
		blameOut   = flag.String("blame-out", "", "on abort, write the blame certificate as JSON to this file (- for stderr) for offline verification")
		equivocate = flag.Bool("fault-equivocate", false, "Byzantine demo: THIS party equivocates on its broadcasts (honest peers must abort and blame it)")
	)
	flag.Parse()

	settings, err := shared.Resolve()
	if err != nil {
		log.Print(err)
		return 2
	}
	if *straggle < 0 {
		log.Printf("-straggle %v is negative", *straggle)
		return 2
	}
	addrs, me, opts := settings.Addrs, settings.Me, settings.Options
	q, err := parseAttrs(*attrsFlag)
	if err != nil {
		log.Print(err)
		return 2
	}
	values, err := parseInts(*valFlag, "-values", q.M())
	if err != nil {
		log.Print(err)
		return 2
	}
	var weights []int64
	if me == 0 {
		weights, err = parseInts(*wtFlag, "-weights", q.M())
	} else if *wtFlag != "" {
		err = fmt.Errorf("-weights is initiator-only (participants hold no criterion)")
	}
	if err != nil {
		log.Print(err)
		return 2
	}

	if *equivocate {
		// The fault net sits at this party's own endpoint: its outgoing
		// broadcast legs equivocate, and the honest peers' echo
		// sub-round must catch it and blame this party.
		opts.Faults = shared.FaultPlan(groupranking.FaultRule{
			Kind: transport.FaultEquivocate, Round: -1, From: me, To: -1,
		})
	}
	if *straggle > 0 {
		// The straggler hook lives on the observer.
		if opts.Observer == nil {
			opts.Observer = groupranking.NewObserver()
		}
		delay := *straggle
		opts.Observer.SetBeginHook(func(party int, phase string) { time.Sleep(delay) })
	}
	stopAdmin, err := shared.ServeAdmin(opts.Observer)
	if err != nil {
		log.Print(err)
		return 2
	}
	defer stopAdmin()

	if me == 0 {
		crit := groupranking.Criterion{Values: values, Weights: weights}
		res, err := groupranking.RankInitiatorParty(context.Background(), q, crit, addrs, opts)
		shared.Report(opts.Observer, os.Stderr)
		if err != nil {
			return fail(err, addrs, *blameOut)
		}
		if opts.Observer != nil {
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

	profile := groupranking.Profile{Values: values}
	res, err := groupranking.RankParticipantParty(context.Background(), q, addrs, me, profile, opts)
	shared.Report(opts.Observer, os.Stderr)
	if err != nil {
		return fail(err, addrs, *blameOut)
	}
	if opts.Observer != nil {
		log.Printf("trace id %s", res.TraceID)
	}
	fmt.Printf("party %d: my gain ranks #%d among %d participants (1 = best)\n", me, res.Rank, len(addrs)-1)
	if res.Rank <= opts.K {
		fmt.Printf("party %d: ranked in the top %d — profile submitted to the initiator\n", me, opts.K)
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
	entries := strings.Split(s, ",")
	attrs := make([]groupranking.Attribute, len(entries))
	for i, entry := range entries {
		attrs[i].Name = fmt.Sprintf("a%d", i)
		kind := entry
		if c := strings.SplitN(entry, ":", 2); len(c) == 2 {
			attrs[i].Name, kind = c[0], c[1]
		}
		if err := attrs[i].Kind.UnmarshalText([]byte(kind)); err != nil {
			return nil, fmt.Errorf("attribute %q: %w", entry, err)
		}
	}
	return groupranking.NewQuestionnaire(attrs)
}

// parseInts parses a comma-separated list of m int64s, one per
// attribute.
func parseInts(s, flagName string, m int) ([]int64, error) {
	if s == "" {
		return nil, fmt.Errorf("need %s (comma-separated integers)", flagName)
	}
	parts := strings.Split(s, ",")
	if len(parts) != m {
		return nil, fmt.Errorf("%s has %d entries, -attrs has %d", flagName, len(parts), m)
	}
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
