// Package debughttp serves live runtime introspection over HTTP: the
// metrics registry as JSON (or Prometheus text exposition via content
// negotiation), collected causal spans as Chrome trace_event JSON (load
// in chrome://tracing or Perfetto) stitched across nodes when peer dumps
// are available, the
// fleet placement table, the flight recorder, SLO burn rates, and the
// stdlib pprof profiles. The endpoint is opt-in (-debug-addr) and
// read-only; every data source is optional and reported as 404 when
// absent so a partially instrumented run still serves what it has.
package debughttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"illixr/internal/netxr/session"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/slo"
	"illixr/internal/telemetry/stitch"
)

// FleetSource supplies the /fleet placement table. It is an interface
// (rather than a concrete fleet type) so debughttp does not depend on the
// gateway package; any value is marshalled to JSON as-is.
type FleetSource interface {
	FleetDoc() any
}

// QoSSource supplies the /qos controller document (qos.Controller
// implements it); same interface pattern as FleetSource.
type QoSSource interface {
	QoSDoc() any
}

// Server exposes one run's observability surfaces. Zero-value fields are
// simply not served.
type Server struct {
	Metrics  *telemetry.Registry
	Spans    *telemetry.SpanCollector
	Sessions session.Lister
	// Mem, when installed, refreshes the illixr_runtime_* memory gauges
	// and the GC-pause histogram on every /metrics scrape.
	Mem *telemetry.RuntimeMem
	// Node labels this process in stitched traces and span dumps
	// ("gateway", "replica-2"); empty means "local".
	Node string
	// SpanDumps, when installed, supplies additional nodes' span dumps
	// (typically fetched from peers' /spans?format=raw) to stitch into
	// the /spans Chrome trace alongside this process's own collector.
	SpanDumps func() []stitch.Dump
	// Fleet, when installed, serves the live placement table at /fleet.
	Fleet FleetSource
	// Events, when installed, serves the flight recorder at /events.
	Events *telemetry.FlightRecorder
	// SLO, when installed, serves objective burn rates at /slo.
	SLO *slo.Engine
	// QoS, when installed, serves the adaptive-QoS controller state
	// (worker split, knob values, recent decision log) at /qos.
	QoS QoSSource
}

// shutdownGrace bounds how long Serve's stop function waits for in-flight
// handlers before forcing connections closed.
const shutdownGrace = 5 * time.Second

// handler returns the route table: /metrics, /spans, /sessions,
// /fleet, /events, /slo, /debug/pprof/*, and an index at /.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/spans", s.spans)
	mux.HandleFunc("/sessions", s.sessions)
	mux.HandleFunc("/fleet", s.fleet)
	mux.HandleFunc("/events", s.events)
	mux.HandleFunc("/slo", s.slo)
	mux.HandleFunc("/qos", s.qos)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves until stopped; it returns the bound
// address (useful with ":0") and a stop function. The stop function shuts
// down gracefully: it stops accepting, lets in-flight handlers finish (a
// response mid-write — a long /spans export, a pprof profile — is not cut
// off), and only force-closes connections still open after shutdownGrace.
func (s *Server) Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.handler()}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // grace expired: cut the stragglers
		}
	}
	return ln.Addr().String(), stop, nil
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "illixr debug endpoint\n\n/metrics\n/spans\n/sessions\n/fleet\n/events\n/slo\n/qos\n/debug/pprof/\n")
}

// metricsDoc is the JSON /metrics shape: the registry snapshot inlined at
// the top level (so a scraper can unmarshal straight into
// telemetry.RegistrySnapshot) plus exposition bookkeeping.
type metricsDoc struct {
	telemetry.RegistrySnapshot
	Node          string `json:"node,omitempty"`
	Series        int    `json:"series"`
	SpansRetained int    `json:"spans_retained"`
	SpansDropped  uint64 `json:"spans_dropped"`
}

// wantsPrometheus reports whether the request negotiated the Prometheus
// text exposition instead of the JSON document.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if s.Metrics == nil {
		http.Error(w, "no metrics registry installed", http.StatusNotFound)
		return
	}
	s.Mem.Observe() // nil-safe: refresh runtime memory stats per scrape
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Metrics.WritePrometheus(w)
		return
	}
	doc := metricsDoc{
		RegistrySnapshot: s.Metrics.Snapshot(),
		Node:             s.Node,
		Series:           s.Metrics.SeriesCount(),
	}
	if s.Spans != nil {
		doc.SpansRetained = len(s.Spans.Spans())
		doc.SpansDropped = s.Spans.Dropped()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// sessions serves the live netxr session table: one JSON row per
// connected offload client (id, uptime, queue depth, drop counts).
func (s *Server) sessions(w http.ResponseWriter, _ *http.Request) {
	if s.Sessions == nil {
		http.Error(w, "no netxr session source installed", http.StatusNotFound)
		return
	}
	infos := s.Sessions.Sessions()
	if infos == nil {
		infos = []session.Info{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(infos)
}

// nodeName is the label this process uses for its own span dump.
func (s *Server) nodeName() string {
	if s.Node != "" {
		return s.Node
	}
	return "local"
}

// spans serves the causal trace. With peer dumps installed the response
// is a cross-node stitched Chrome trace; ?format=raw instead returns the
// []stitch.Dump array a peer stitcher would consume.
func (s *Server) spans(w http.ResponseWriter, r *http.Request) {
	if s.Spans == nil && s.SpanDumps == nil {
		http.Error(w, "no span collector installed", http.StatusNotFound)
		return
	}
	dumps := make([]stitch.Dump, 0, 4)
	if s.Spans != nil {
		dumps = append(dumps, stitch.CollectorDump(s.nodeName(), s.Spans))
	}
	if s.SpanDumps != nil {
		dumps = append(dumps, s.SpanDumps()...)
	}
	if r.URL.Query().Get("format") == "raw" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(dumps)
		return
	}
	tr, err := stitch.Stitch(dumps...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChromeTrace(w)
}

func (s *Server) fleet(w http.ResponseWriter, _ *http.Request) {
	if s.Fleet == nil {
		http.Error(w, "no fleet source installed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Fleet.FleetDoc())
}

// eventsDoc is the /events JSON shape.
type eventsDoc struct {
	Node        string                 `json:"node,omitempty"`
	Recorded    uint64                 `json:"recorded"`
	Overwritten uint64                 `json:"overwritten"`
	Events      []telemetry.FleetEvent `json:"events"`
}

func (s *Server) events(w http.ResponseWriter, _ *http.Request) {
	if s.Events == nil {
		http.Error(w, "no flight recorder installed", http.StatusNotFound)
		return
	}
	doc := eventsDoc{
		Node:        s.Node,
		Recorded:    s.Events.Recorded(),
		Overwritten: s.Events.Overwritten(),
		Events:      s.Events.Events(),
	}
	if doc.Events == nil {
		doc.Events = []telemetry.FleetEvent{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

func (s *Server) qos(w http.ResponseWriter, _ *http.Request) {
	if s.QoS == nil {
		http.Error(w, "no qos controller installed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.QoS.QoSDoc())
}

func (s *Server) slo(w http.ResponseWriter, _ *http.Request) {
	if s.SLO == nil {
		http.Error(w, "no slo engine installed", http.StatusNotFound)
		return
	}
	statuses := s.SLO.Snapshot()
	if statuses == nil {
		statuses = []slo.Status{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(statuses)
}
