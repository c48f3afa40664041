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
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"illixr/internal/config"
	"illixr/internal/debughttp"
	"illixr/internal/integrator"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/bridge"
	"illixr/internal/netxr/session"
	"illixr/internal/netxr/wire"
	"illixr/internal/parallel"
	"illixr/internal/qos"
	"illixr/internal/recycle"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/stitch"
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
		"serve /metrics /health /spans /sessions /debug/pprof/ on this address (e.g. :8080)")
	node := flag.String("node", "replica",
		"node label for this process in stitched traces and span dumps")
	traceOut := flag.String("trace-out", "",
		"on shutdown, write all sessions' causal spans as Chrome trace JSON to this file")
	metricsOut := flag.String("metrics-out", "",
		"on shutdown, write the metrics registry to this file (Prometheus text, as /metrics?format=prometheus)")
	record := flag.String("record", "",
		"capture every session frame (uplink+downlink) into this binlog file; "+
			"a sidecar index is written alongside on shutdown (DESIGN.md §13)")
	qosOn := flag.Bool("qos", false,
		"adaptive QoS: batch camera/QoE work across sessions and run the "+
			"deadline controller over it (/qos on the debug endpoint; DESIGN.md §14)")
	qosWorkers := flag.Int("qos-workers", 4, "worker pool split by the QoS controller")
	flag.Parse()

	reg := telemetry.NewRegistry()
	recycle.Instrument(reg)

	var capture *binlog.Writer
	if *record != "" {
		var err error
		capture, err = binlog.Create(*record, binlog.Meta{Label: "serve"}, reg)
		if err != nil {
			log.Fatalf("record: %v", err)
		}
	}
	pipe := &bridge.Pipeline{
		Metrics:       reg,
		VIO:           *vio,
		Init:          func(wire.Hello) integrator.State { return integrator.State{} },
		Cam:           func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() },
		RetainTracers: 64,
	}
	var handler session.Handler = pipe
	var qosCtl *qos.Controller
	var stopQoS func()
	if *qosOn {
		var err error
		handler, qosCtl, stopQoS, err = wireQoS(pipe, reg, *qosWorkers)
		if err != nil {
			log.Fatalf("qos: %v", err)
		}
		defer stopQoS()
	}
	srv := session.NewServer(session.Config{
		MaxSessions: *maxSessions,
		QueueLen:    *queueLen,
		IdleTimeout: time.Duration(*idleTimeout * float64(time.Second)),
		Capture:     capture,
		Metrics:     reg,
	}, handler)

	if *debugAddr != "" {
		dbg := &debughttp.Server{Metrics: reg, Sessions: srv, Mem: telemetry.NewRuntimeMem(reg),
			Node:      *node,
			SpanDumps: func() []stitch.Dump { return pipe.Dumps(*node) },
		}
		if qosCtl != nil {
			dbg.QoS = qosCtl
		}
		bound, _, err := dbg.Serve(*debugAddr)
		if err != nil {
			log.Fatalf("debug endpoint: %v", err)
		}
		fmt.Printf("debug endpoint on http://%s (see /sessions)\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("illixr-serve listening on %s (max %d sessions, vio=%v)\n",
		ln.Addr(), *maxSessions, *vio)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\ndraining sessions…")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	if capture != nil {
		// all sessions have quiesced (Shutdown waited); the opener closes
		if err := capture.Close(); err != nil {
			log.Fatalf("record: %v", err)
		}
		fmt.Printf("recorded %d frames into %s (+%s)\n", capture.Count(), *record, binlog.IndexSuffix)
	}
	if *traceOut != "" {
		write := func(w io.Writer) error {
			tr, err := stitch.Stitch(pipe.Dumps(*node)...)
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
	fmt.Println("server stopped")
}

// Live QoS cadence: the batcher flushes every flush window (bounding
// added camera latency to ~2 ms) and the controller closes an epoch
// every qosEpoch.
const (
	qosEpoch      = 50 * time.Millisecond
	qosFlushEvery = 2 * time.Millisecond
)

// wireQoS interposes cross-session batching in front of the pipeline
// and starts the adaptive controller over it: camera decode+VIO publish
// batches on the imgproc pool, QoE scoring on the ssim pool, and every
// epoch the controller re-splits workers and steps the quality knobs
// from the pools' own latency histograms (DESIGN.md §14).
func wireQoS(pipe *bridge.Pipeline, reg *telemetry.Registry, workers int) (session.Handler, *qos.Controller, func(), error) {
	if workers < 2 {
		workers = 2
	}
	pools := map[string]*parallel.Pool{
		"imgproc": parallel.New(workers - workers/2),
		"ssim":    parallel.New(workers / 2),
	}
	for _, p := range pools {
		p.Instrument(reg)
	}
	ctl, err := qos.NewController(qos.Config{
		Seed:         1,
		TotalWorkers: workers,
		BudgetUs:     8333, // 120 Hz vsync
		Kernels: []qos.KernelSpec{
			{ID: "imgproc", Weight: 2, Knobs: []qos.KnobSpec{
				{Name: "pyramid_levels", Full: 3, Floor: 1},
			}},
			{ID: "ssim", Weight: 1, Knobs: []qos.KnobSpec{
				{Name: "stride", Full: 1, Floor: 4},
			}},
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ctl.Instrument(reg)
	// the pools observe illixr_parallel_qos_batch_<kernel>_ms on every
	// batched dispatch — that histogram is the controller's signal
	tap := qos.NewRegistryTap(reg, []qos.TapStage{
		{Kernel: "imgproc", Histogram: telemetry.MetricName("parallel", "qos_batch_imgproc_ms")},
		{Kernel: "ssim", Histogram: telemetry.MetricName("parallel", "qos_batch_ssim_ms")},
	})

	batcher := qos.NewBatcher(pools["imgproc"])
	batcher.Instrument(reg)
	stopFlush := batcher.AutoFlush(qosFlushEvery)

	handler := &session.BatchingHandler{
		Inner:   pipe,
		Batcher: batcher,
		Types: map[wire.Type]string{
			wire.TypeCamera: "imgproc",
			wire.TypeQoE:    "ssim",
		},
	}
	handler.Instrument(reg)

	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(qosEpoch)
		defer t.Stop()
		var stats []qos.KernelStats
		for {
			select {
			case <-t.C:
				stats = tap.Sample(stats)
				ctl.Step(stats)
				ctl.ApplyWorkers(pools)
			case <-done:
				return
			}
		}
	}()
	stop := func() {
		close(done)
		<-finished
		stopFlush()
	}
	return handler, ctl, stop, nil
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
