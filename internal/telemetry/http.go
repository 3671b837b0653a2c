package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// The admin endpoint contract (DESIGN.md §3.7):
//
//	GET /metrics      Prometheus text exposition of every family in the
//	                  registry: the runtime's and, in an obsv registry's
//	                  store, the protocol's per-party op counts. Always
//	                  200; scrape-safe mid-run.
//	GET /healthz      JSON per-peer link state. 200 when every link is
//	                  connected, 503 while starting, degraded or dead —
//	                  so a load balancer or supervisor can act on it.
//	GET /debug/pprof  the standard Go profiler surface.

// healthReport is the /healthz response body.
type healthReport struct {
	Status  string         `json:"status"` // ok | degraded | draining | starting
	Peers   []PeerHealth   `json:"peers,omitempty"`
	Service *ServiceStatus `json:"service,omitempty"`
}

// AdminMux builds the admin HTTP handler over a registry.
func AdminMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		// The registry is the only writer, so the one error left is the
		// client's connection going away mid-scrape.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		report := healthReport{Status: "starting"}
		code := http.StatusServiceUnavailable
		if src := reg.healthSource(); src != nil {
			report.Status = "ok"
			report.Peers = src.Health()
			code = http.StatusOK
			for _, p := range report.Peers {
				if p.State != StateConnected {
					report.Status = "degraded"
					code = http.StatusServiceUnavailable
					break
				}
			}
		}
		if src := reg.serviceStatus(); src != nil {
			st := src()
			report.Service = &st
			// A draining daemon is deliberately non-200: load balancers
			// must stop routing new sessions here while the running ones
			// finish.
			if st.Draining {
				report.Status = "draining"
				code = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(report)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
