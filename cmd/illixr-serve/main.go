// Command illixr-serve runs the edge-offload streaming server: it accepts
// netxr sessions over TCP and hosts the perception back half of the
// pipeline (IMU integrator, optionally VIO) for each connected client,
// streaming fast poses back downstream (DESIGN.md §9).
//
// Usage:
//
//	illixr-serve -addr :7425
//	illixr-serve -addr :7425 -vio -debug-addr :8080   # /sessions live table
//	illixr-serve -max-sessions 8 -idle-timeout 10
//	illixr-serve -node replica-0 -trace-out trace.json -metrics-out metrics.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"illixr/internal/config"
	"illixr/internal/netxr/node"
)

func main() {
	defaults := config.DefaultNet()
	addr := flag.String("addr", ":7425", "TCP listen address for offload sessions")
	maxSessions := flag.Int("max-sessions", defaults.MaxSessions, "concurrent session cap")
	queueLen := flag.Int("queue-len", defaults.QueueLen, "per-session reliable send queue bound")
	idleTimeout := flag.Float64("idle-timeout", defaults.IdleTimeoutSec,
		"seconds of uplink silence before a session is reaped (<0 disables)")
	vio := flag.Bool("vio", false, "host the MSCKF VIO per session (heavier; default hosts only the integrator)")
	debugAddr := flag.String("debug-addr", "",
		"serve /metrics /spans /sessions /debug/pprof/ on this address (e.g. :8080)")
	nodeName := flag.String("node", "replica",
		"node label for this process in stitched traces and span dumps")
	traceOut := flag.String("trace-out", "",
		"on shutdown, write all sessions' causal spans as Chrome trace JSON to this file")
	metricsOut := flag.String("metrics-out", "",
		"on shutdown, write the metrics registry to this file (Prometheus text, as /metrics?format=prometheus)")
	record := flag.String("record", "",
		"capture every session frame (uplink+downlink) into this binlog file (DESIGN.md §13)")
	flag.Parse()
	if err := node.CheckPositive(flag.CommandLine, "max-sessions", "queue-len"); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	r := &node.Replica{
		Net: config.NetParams{MaxSessions: *maxSessions, QueueLen: *queueLen,
			IdleTimeoutSec: *idleTimeout},
		VIO:       *vio,
		Record:    *record,
		Node:      *nodeName,
		DebugAddr: *debugAddr,
	}
	if err := r.Start(); err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		fmt.Printf("debug endpoint on http://%s (see /sessions)\n", r.DebugAddr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("illixr-serve listening on %s (max %d sessions, vio=%v)\n",
		ln.Addr(), *maxSessions, *vio)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := node.Run(ctx, r, ln, os.Stdout, *traceOut, *metricsOut); err != nil {
		log.Fatal(err)
	}
	if *record != "" {
		fmt.Printf("recorded %d frames into %s\n", r.Recorded(), *record)
	}
	fmt.Println("server stopped")
}
