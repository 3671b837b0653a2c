// Command rankd runs ONE daemon of the ranking-as-a-service
// deployment: a long-running coordinator process hosting many
// concurrent privacy-preserving ranking sessions over a single
// multiplexed connection per peer daemon. Index 0 of -addrs is the
// initiator daemon (clients create sessions and poll initiator-side
// results there); indices 1..n are participant daemons (each takes its
// own participant's private profile submissions).
//
//	rankd -addrs :9401,:9402,:9403,:9404 -me 0 -api :9441 -admin :9451
//	rankd -addrs :9401,:9402,:9403,:9404 -me 1 -api :9442
//	...
//
// Clients drive the mesh through the submit/poll HTTP API on -api
// (POST /v1/sessions at daemon 0, POST /v1/sessions/{id}/submit at
// each participant daemon, GET /v1/sessions/{id}/result anywhere; see
// the groupranking.Client type). -admin serves live telemetry —
// /metrics includes the mux link counters that prove N concurrent
// sessions share one connection per peer pair, plus the service
// session lifecycle counters.
//
// With -journal DIR the daemon is durable: every session's transcript
// and lifecycle land in append-only journals under DIR, and a
// restarted daemon (same flags, same DIR) re-adopts its sessions —
// finished results stay pollable, interrupted sessions resume
// byte-identically. An unusable DIR (unwritable, not a directory, or
// locked by another live daemon for the same slot) exits 2 at startup,
// as does any setting the daemon refuses (a negative -workers, -grace
// or -session-timeout, -grace without -journal, or a -me outside
// -addrs).
//
// SIGINT/SIGTERM drains the daemon gracefully: admission closes (new
// work is rejected with the typed "draining" code and a Retry-After),
// running sessions get -drain to finish, and whatever remains is
// parked in the journals for the next life to pick up (without
// -journal it simply aborts). A second signal forces shutdown
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"groupranking/internal/cli"
	"groupranking/internal/core"
	"groupranking/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("rankd: ")
	var shared cli.Flags
	shared.Deployment(flag.CommandLine)
	shared.Workers(flag.CommandLine)
	var (
		apiAddr        = flag.String("api", "", "serve the session HTTP API on this address")
		maxSessions    = flag.Int("max-sessions", 64, "admission cap: most concurrent non-terminal sessions this daemon hosts")
		resultTTL      = flag.Duration("result-ttl", 5*time.Minute, "how long a finished session's result stays pollable")
		sessionTimeout = flag.Duration("session-timeout", core.DefaultTimeout, "default (and ceiling) per-session budget")
		drainBudget    = flag.Duration("drain", 20*time.Second, "graceful-drain budget on SIGINT/SIGTERM: how long running sessions may finish before the rest is parked (or aborted without -journal)")
	)
	flag.Parse()

	settings, err := shared.Resolve()
	if err != nil {
		log.Print(err)
		return 2
	}
	if *apiAddr == "" {
		log.Print("need -api with the session HTTP API listen address")
		return 2
	}
	cfg := service.Config{
		Addrs:       settings.Addrs,
		Me:          settings.Me,
		MaxSessions: *maxSessions,
		ResultTTL:   *resultTTL,
		Runtime:     settings.Options.Runtime,
		Recovery:    settings.Options.Recovery,
		Telemetry:   settings.Options.Observer.Metrics(),
	}
	cfg.Timeout = *sessionTimeout
	stopAdmin, err := shared.ServeAdmin(settings.Options.Observer)
	if err != nil {
		log.Print(err)
		return 2
	}
	defer stopAdmin()

	// Bind the API listener before joining the mesh so a bad -api fails
	// fast, but only serve once the daemon is up.
	apiLn, err := net.Listen("tcp", *apiAddr)
	if err != nil {
		log.Printf("-api: %v", err)
		return 2
	}
	defer apiLn.Close()

	log.Printf("daemon %d joining the %d-daemon mesh...", cfg.Me, len(cfg.Addrs))
	d, err := service.NewDaemon(cfg)
	if err != nil {
		log.Print(err)
		if errors.Is(err, service.ErrBadJournalDir) || errors.Is(err, service.ErrBadConfig) {
			return 2 // operator mistake, not a runtime fault
		}
		return 1
	}
	defer d.Close()
	if cfg.Recovery != nil {
		log.Printf("durable mode: journals under %s", cfg.Recovery.Dir)
	}

	// net/http counts a connection that has not sent its first request as
	// busy for 5 s, so one a client dialled ahead of use would hold
	// Shutdown, and SIGTERM's exit, that long. The header deadline closes
	// such a connection after a second instead; requests themselves are a
	// few hundred bytes sent at once.
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(apiLn) }()
	role := "participant"
	if d.Me() == 0 {
		role = "initiator"
	}
	log.Printf("%s daemon serving the session API on http://%s (cap %d sessions, result TTL %v)",
		role, apiLn.Addr(), *maxSessions, *resultTTL)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("caught %v; draining (admission closed, %v budget; signal again to force)", s, *drainBudget)
		drained := make(chan int, 1)
		go func() { drained <- d.Drain(*drainBudget) }()
		select {
		case left := <-drained:
			if left > 0 && cfg.Recovery != nil {
				log.Printf("parked %d unfinished sessions for the next life to resume", left)
			} else if left > 0 {
				log.Printf("aborting %d unfinished sessions (no -journal to park them in)", left)
			}
		case s2 := <-sig:
			log.Printf("caught %v; forcing shutdown", s2)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("api server: %v", err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	d.Close()
	return 0
}
