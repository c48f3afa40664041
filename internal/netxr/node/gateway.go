package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"illixr/internal/debughttp"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/fleet"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/slo"
	"illixr/internal/telemetry/stitch"
)

// Gateway fronts a fleet of replicas: clients connect to it, the fleet
// coordinator places each session on the least-loaded live replica, and
// the gateway relays frames both ways (DESIGN.md §11). With MetricURLs
// it also scrapes each replica's debug endpoint, places on the scraped
// load, folds the scraped MTP p99 into an SLO and stitches the replicas'
// span dumps into its own (DESIGN.md §12).
type Gateway struct {
	// Backends lists one replica address per fleet slot; each relay leg
	// dials its replica's address over TCP.
	Backends []string
	// MetricURLs, when non-nil, lists each replica's debughttp base URL,
	// aligned with Backends; nil places on this gateway's own counts.
	MetricURLs []string
	// Fleet tunes admission (capacity, retry-after, resume burst and
	// window, token seed); its Metrics and Events are the gateway's own.
	Fleet fleet.Config
	// ScrapeInterval paces the scraper and the SLO fold (<= 0 = 1 s).
	ScrapeInterval time.Duration
	// SLOBoundMs is the fleet MTP p99 objective, observed per live
	// replica per scrape round; 0 = no SLO engine.
	SLOBoundMs float64
	// Record captures all client-facing relayed frames into this binlog.
	Record string
	// Node labels this process in stitched traces and span dumps.
	Node string
	// DebugAddr serves /metrics /fleet /spans /events /slo /debug/pprof/
	// there; Start replaces it with the bound address.
	DebugAddr string

	// Set by Start.
	Registry *telemetry.Registry
	Coord    *fleet.Coordinator

	recording
	events     *telemetry.FlightRecorder
	spans      *telemetry.SpanCollector
	scraper    *fleet.Scraper
	slo        *slo.Engine
	gw         *fleet.Gateway
	stopScrape func()
	stopDebug  func()
}

// Start builds the gateway; Serve or HandleConn then feed it clients. A
// failed Start has already closed what it had opened.
func (g *Gateway) Start() error {
	if g.MetricURLs != nil && len(g.MetricURLs) != len(g.Backends) {
		return fmt.Errorf("gateway: %d metric URLs for %d replicas", len(g.MetricURLs), len(g.Backends))
	}
	g.Registry = telemetry.NewRegistry()
	g.events = telemetry.NewFlightRecorder(telemetry.DefaultFlightCap)
	cfg := g.Fleet
	cfg.Metrics, cfg.Events = g.Registry, g.events
	g.Coord = fleet.NewCoordinator(cfg)

	interval := g.ScrapeInterval
	if interval <= 0 {
		interval = time.Second
	}
	// With metrics federation the coordinator places on live scraped
	// load; without it placement falls back to this gateway's own counts.
	if g.MetricURLs != nil {
		g.scraper = fleet.NewScraper(g.Coord, fleet.ScrapeConfig{
			Interval: interval, Metrics: g.Registry, Events: g.events})
	}
	for i := range g.Backends {
		var probe fleet.LoadProbe
		if g.scraper != nil {
			g.scraper.AddTarget(i, g.MetricURLs[i]+"/metrics")
			probe = g.scraper.Probe(i)
		}
		g.Coord.AddReplica(i, probe)
	}

	if err := g.open(g.Record, binlog.Meta{Label: "gateway"}, g.Registry); err != nil {
		return err
	}
	g.spans = telemetry.NewSpanCollector(0)
	g.gw = &fleet.Gateway{Coord: g.Coord,
		Dial: func(id int) (net.Conn, error) {
			return net.DialTimeout("tcp", g.Backends[id], 5*time.Second)
		},
		Metrics: g.Registry, Spans: g.spans, Record: g.capture}

	if g.SLOBoundMs > 0 {
		g.slo = slo.NewEngine(g.Registry)
		g.slo.AddObjective(slo.Objective{
			Name: sloObjective, Bound: g.SLOBoundMs, Budget: 0.05, WindowSec: 300})
	}
	if g.scraper != nil {
		start := time.Now()
		g.stopScrape = every(interval, func() { g.scrapeRound(time.Since(start).Seconds()) })
	}

	if g.DebugAddr != "" {
		dbg := &debughttp.Server{
			Metrics: g.Registry, Mem: telemetry.NewRuntimeMem(g.Registry),
			Node:   g.Node,
			Spans:  g.spans,
			Events: g.events,
			SLO:    g.slo,
		}
		if g.scraper != nil {
			dbg.Fleet = g.scraper
			dbg.SpanDumps = g.replicaDumps
		}
		bound, stop, err := dbg.Serve(g.DebugAddr)
		if err != nil {
			_ = g.Close(context.Background())
			return fmt.Errorf("debug endpoint: %w", err)
		}
		g.DebugAddr, g.stopDebug = bound, stop
	}
	return nil
}

const sloObjective = "fleet_mtp_p99"

// scrapeRound scrapes every replica once, stamped now (wall seconds
// since Start), and folds the round's per-replica MTP p99 into the SLO.
func (g *Gateway) scrapeRound(now float64) {
	g.scraper.ScrapeOnce(now)
	if g.slo == nil {
		return
	}
	doc, _ := g.scraper.FleetDoc().(fleet.FleetDoc)
	for _, r := range doc.Replicas {
		if r.Live && r.MTPP99Ms > 0 {
			g.slo.Observe(sloObjective, now, r.MTPP99Ms)
		}
	}
}

// replicaDumps federates the replicas' /spans?format=raw dumps for
// stitching; a replica that cannot be read is a scrape-failure flight
// event and is left out.
func (g *Gateway) replicaDumps() []stitch.Dump {
	var dumps []stitch.Dump
	client := &http.Client{Timeout: 5 * time.Second}
	for i, base := range g.MetricURLs {
		resp, err := client.Get(base + "/spans?format=raw")
		if err != nil {
			g.events.Record(telemetry.EventScrapeFail, fmt.Sprintf("replica-%d", i), err.Error())
			continue
		}
		var ds []stitch.Dump
		err = json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&ds)
		_ = resp.Body.Close()
		if err != nil {
			g.events.Record(telemetry.EventScrapeFail, fmt.Sprintf("replica-%d", i), err.Error())
			continue
		}
		dumps = append(dumps, ds...)
	}
	return dumps
}

// Serve accepts clients on ln until Close (or a listener error). It blocks.
func (g *Gateway) Serve(ln net.Listener) error { return g.gw.Serve(ln) }

// HandleConn adopts one client connection and relays it asynchronously.
func (g *Gateway) HandleConn(conn net.Conn) { g.gw.HandleConn(conn) }

// Close takes the gateway down: stop accepting and sever every relay,
// waiting for the relay goroutines up to ctx's deadline → stop the
// scrape loop (a round in flight finishes first: at most one interval
// per replica) → stop the debug endpoint → close the capture, which the
// relays were the only writers of. Every step runs whatever the earlier
// ones returned; a second Close is a no-op.
func (g *Gateway) Close(ctx context.Context) error {
	var relayErr error
	if g.gw != nil {
		if relayErr = g.gw.Shutdown(ctx); relayErr != nil {
			relayErr = fmt.Errorf("relays: %w", relayErr)
		}
	}
	if g.stopScrape != nil {
		g.stopScrape()
	}
	if g.stopDebug != nil {
		g.stopDebug()
	}
	return errors.Join(relayErr, g.recording.close())
}

// WriteTrace stitches the gateway's hop spans with whatever span dumps
// the replicas still serve into one Chrome trace (-trace-out, /spans).
func (g *Gateway) WriteTrace(w io.Writer) error {
	return writeStitched(w, append([]stitch.Dump{stitch.CollectorDump(g.Node, g.spans)}, g.replicaDumps()...))
}

// WriteMetrics writes the registry as the Prometheus text
// /metrics?format=prometheus serves (-metrics-out).
func (g *Gateway) WriteMetrics(w io.Writer) error { return g.Registry.WritePrometheus(w) }
