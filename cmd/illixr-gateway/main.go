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
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"illixr/internal/config"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/node"
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
	nodeName := flag.String("node", "gateway",
		"node label for this process in stitched traces and span dumps")
	sloBound := flag.Float64("slo-mtp-ms", 30.0,
		"fleet MTP p99 SLO bound in ms (scraped per replica; 0 disables)")
	traceOut := flag.String("trace-out", "",
		"on shutdown, write the stitched gateway+replica trace to this file")
	metricsOut := flag.String("metrics-out", "",
		"on shutdown, write the metrics registry to this file (Prometheus text, as /metrics?format=prometheus)")
	record := flag.String("record", "",
		"capture all client-facing relayed frames into this binlog file (DESIGN.md §13)")
	flag.Parse()
	if err := node.CheckPositive(flag.CommandLine,
		"capacity", "resume-burst", "retry-after", "scrape-interval"); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

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
	}

	g := &node.Gateway{
		Backends:   backends,
		MetricURLs: metricURLs,
		Fleet: fleet.Config{
			ReplicaCapacity: *capacity,
			RetryAfter:      time.Duration(*retryAfter * float64(time.Second)),
			ResumeBurst:     *resumeBurst,
			TokenSeed:       *tokenSeed,
		},
		ScrapeInterval: time.Duration(*scrapeInterval * float64(time.Second)),
		SLOBoundMs:     *sloBound,
		Record:         *record,
		Node:           *nodeName,
		DebugAddr:      *debugAddr,
	}
	if err := g.Start(); err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		fmt.Printf("debug endpoint on http://%s (see /fleet /spans /events /slo)\n", g.DebugAddr)
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := node.Run(ctx, g, ln, os.Stdout, *traceOut, *metricsOut); err != nil {
		log.Fatal(err)
	}
	if *record != "" {
		fmt.Printf("recorded %d frames into %s\n", g.Recorded(), *record)
	}
	fmt.Println("gateway stopped")
}
