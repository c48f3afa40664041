// Command illixr-gateway fronts a fleet of illixr-serve replicas: clients
// connect here, the fleet coordinator places each session on the
// least-loaded live replica, and the gateway relays frames both ways.
// When the fleet is saturated the client gets a Bye with a Retry-After
// hint instead of a hard error; when a replica dies mid-session the
// client's stored resume token lets it reconnect and land on a survivor
// with its session state (acked seq, pose epoch) intact (DESIGN.md §11).
//
// With -replica-metrics the gateway also scrapes each replica's debughttp
// /metrics endpoint and feeds the scraped session counts and queue depths
// into placement as live load probes, aggregates the fleet view at
// /fleet, stitches replica span dumps into cross-node traces at /spans,
// tracks SLO burn rates at /slo, and keeps a flight recorder of admission
// and replica-health events at /events (DESIGN.md §12).
//
// Usage:
//
//	illixr-gateway -addr :7400 -replicas localhost:7425,localhost:7426
//	illixr-gateway -replicas host-a:7425,host-b:7425 -capacity 16 -retry-after 0.5
//	illixr-gateway -replicas host-a:7425,host-b:7425 \
//	    -replica-metrics http://host-a:8080,http://host-b:8080 \
//	    -scrape-interval 1 -debug-addr :8090
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"illixr/internal/config"
	"illixr/internal/debughttp"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/fleet"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/slo"
	"illixr/internal/telemetry/stitch"
)

func main() {
	defaults := config.DefaultNet()
	addr := flag.String("addr", ":7400", "TCP listen address for client sessions")
	replicas := flag.String("replicas", "localhost:7425",
		"comma-separated illixr-serve replica addresses")
	capacity := flag.Int("capacity", defaults.MaxSessions, "per-replica session cap")
	retryAfter := flag.Float64("retry-after", 0.25,
		"seconds clients are told to wait when the fleet pushes back")
	resumeBurst := flag.Int("resume-burst", 16,
		"resume admissions allowed per window before push-back (crash-storm damping)")
	tokenSeed := flag.Int64("token-seed", 0, "seed for resume-token issuance (0 = fixed default)")
	debugAddr := flag.String("debug-addr", "",
		"serve /metrics /fleet /spans /events /slo /debug/pprof/ on this address (e.g. :8090)")
	replicaMetrics := flag.String("replica-metrics", "",
		"comma-separated replica debughttp base URLs (aligned with -replicas); "+
			"enables metrics-federated placement and cross-node trace stitching")
	scrapeInterval := flag.Float64("scrape-interval", 1.0,
		"seconds between replica metrics scrapes (with -replica-metrics)")
	node := flag.String("node", "gateway",
		"node label for this process in stitched traces and span dumps")
	sloBound := flag.Float64("slo-mtp-ms", 30.0,
		"fleet MTP p99 SLO bound in ms (scraped per replica; 0 disables)")
	traceOut := flag.String("trace-out", "",
		"on shutdown, write the stitched gateway+replica trace to this file")
	metricsOut := flag.String("metrics-out", "",
		"on shutdown, write the metrics registry to this file (Prometheus text, as /metrics?format=prometheus)")
	record := flag.String("record", "",
		"capture all client-facing relayed frames into this binlog file "+
			"(sidecar index written on shutdown; DESIGN.md §13)")
	flag.Parse()

	backends := strings.Split(*replicas, ",")
	for i := range backends {
		backends[i] = strings.TrimSpace(backends[i])
	}
	var metricURLs []string
	if *replicaMetrics != "" {
		metricURLs = strings.Split(*replicaMetrics, ",")
		for i := range metricURLs {
			metricURLs[i] = strings.TrimRight(strings.TrimSpace(metricURLs[i]), "/")
		}
		if len(metricURLs) != len(backends) {
			log.Fatalf("-replica-metrics lists %d URLs for %d replicas", len(metricURLs), len(backends))
		}
	}

	reg := telemetry.NewRegistry()
	events := telemetry.NewFlightRecorder(telemetry.DefaultFlightCap)
	coord := fleet.NewCoordinator(fleet.Config{
		ReplicaCapacity: *capacity,
		RetryAfter:      time.Duration(*retryAfter * float64(time.Second)),
		ResumeBurst:     *resumeBurst,
		TokenSeed:       *tokenSeed,
		Metrics:         reg,
		Events:          events,
	})

	// With metrics federation the coordinator places on live scraped
	// load; without it placement falls back to this gateway's own counts.
	var scraper *fleet.Scraper
	if metricURLs != nil {
		scraper = fleet.NewScraper(coord, fleet.ScrapeConfig{
			Interval: time.Duration(*scrapeInterval * float64(time.Second)),
			Metrics:  reg,
			Events:   events,
		})
		for i, base := range metricURLs {
			scraper.AddTarget(i, base+"/metrics")
			coord.AddReplica(i, scraper.Probe(i))
		}
	} else {
		for i := range backends {
			coord.AddReplica(i, nil)
		}
	}

	var capture *binlog.Writer
	if *record != "" {
		var err error
		capture, err = binlog.Create(*record, binlog.Meta{Label: "gateway"}, reg)
		if err != nil {
			log.Fatalf("record: %v", err)
		}
	}

	spans := telemetry.NewSpanCollector(0)
	gw := &fleet.Gateway{
		Coord: coord,
		Dial: func(id int) (net.Conn, error) {
			return net.DialTimeout("tcp", backends[id], 5*time.Second)
		},
		Metrics: reg,
		Spans:   spans,
		Record:  capture,
	}

	var sloEng *slo.Engine
	if *sloBound > 0 {
		sloEng = slo.NewEngine(reg)
		sloEng.AddObjective(slo.Objective{
			Name: "fleet_mtp_p99", Bound: *sloBound, Budget: 0.05, WindowSec: 300})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if scraper != nil {
		go scraper.Run(ctx)
		if sloEng != nil {
			// fold each scrape round's per-replica MTP p99 into the SLO
			go func() {
				t := time.NewTicker(time.Duration(*scrapeInterval * float64(time.Second)))
				defer t.Stop()
				start := time.Now()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						doc, ok := scraper.FleetDoc().(fleet.FleetDoc)
						if !ok {
							continue
						}
						now := time.Since(start).Seconds()
						for _, r := range doc.Replicas {
							if r.Live && r.MTPP99Ms > 0 {
								sloEng.Observe("fleet_mtp_p99", now, r.MTPP99Ms)
							}
						}
					}
				}
			}()
		}
	}

	// spanDumps federates replica /spans?format=raw dumps for stitching.
	spanDumps := func() []stitch.Dump {
		var dumps []stitch.Dump
		client := &http.Client{Timeout: 5 * time.Second}
		for i, base := range metricURLs {
			resp, err := client.Get(base + "/spans?format=raw")
			if err != nil {
				events.Record(telemetry.EventScrapeFail, fmt.Sprintf("replica-%d", i), err.Error())
				continue
			}
			var ds []stitch.Dump
			err = json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&ds)
			_ = resp.Body.Close()
			if err != nil {
				events.Record(telemetry.EventScrapeFail, fmt.Sprintf("replica-%d", i), err.Error())
				continue
			}
			dumps = append(dumps, ds...)
		}
		return dumps
	}

	if *debugAddr != "" {
		dbg := &debughttp.Server{
			Metrics: reg, Mem: telemetry.NewRuntimeMem(reg),
			Node:   *node,
			Spans:  spans,
			Events: events,
			SLO:    sloEng,
		}
		if scraper != nil {
			dbg.Fleet = scraper
			dbg.SpanDumps = spanDumps
		}
		bound, _, err := dbg.Serve(*debugAddr)
		if err != nil {
			log.Fatalf("debug endpoint: %v", err)
		}
		fmt.Printf("debug endpoint on http://%s (see /fleet /spans /events /slo)\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("illixr-gateway on %s fronting %d replicas (capacity %d each, retry-after %.2fs)\n",
		ln.Addr(), len(backends), *capacity, *retryAfter)
	for i, b := range backends {
		if metricURLs != nil {
			fmt.Printf("  replica %d: %s (metrics %s/metrics)\n", i, b, metricURLs[i])
		} else {
			fmt.Printf("  replica %d: %s\n", i, b)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\ndraining relays…")
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = gw.Shutdown(sctx)
	}()

	if err := gw.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	cancel()
	if capture != nil {
		// Shutdown waited for the relay goroutines; the opener closes
		if err := capture.Close(); err != nil {
			log.Fatalf("record: %v", err)
		}
		fmt.Printf("recorded %d frames into %s (+%s)\n", capture.Count(), *record, binlog.IndexSuffix)
	}
	if *traceOut != "" {
		write := func(w io.Writer) error {
			dumps := append([]stitch.Dump{stitch.CollectorDump(*node, spans)}, spanDumps()...)
			tr, err := stitch.Stitch(dumps...)
			if err != nil {
				return err
			}
			return tr.WriteChromeTrace(w)
		}
		if err := writeFile(*traceOut, write); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		fmt.Printf("wrote %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, reg.WritePrometheus); err != nil {
			log.Fatalf("metrics-out: %v", err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	fmt.Println("gateway stopped")
}

// writeFile streams write(w) into path.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
