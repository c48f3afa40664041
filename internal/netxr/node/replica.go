package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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

// Replica is one offload server: it accepts netxr sessions and hosts the
// perception back half of the pipeline (IMU integrator, optionally VIO)
// for each connected client, streaming fast poses back (DESIGN.md §9).
type Replica struct {
	// Net bounds the session server (sessions, reliable queue depth, idle
	// reap; Profile is not read). Zero fields take config.DefaultNet().
	Net config.NetParams
	// VIO additionally hosts the MSCKF per session.
	VIO bool
	// QoSWorkers, when > 0, batches camera and QoE frames across sessions
	// and runs the deadline controller over a pool of this many workers
	// (at least 2; DESIGN.md §14). 0 = every frame handled inline.
	QoSWorkers int
	// Record captures every session frame, uplink and downlink, into this
	// binlog file; the sidecar index is written by Close (DESIGN.md §13).
	Record string
	// Node labels this process in stitched traces and span dumps.
	Node string
	// DebugAddr serves /metrics /health /spans /sessions /qos
	// /debug/pprof/ there; Start replaces it with the bound address.
	DebugAddr string

	// Set by Start. recycle's instruments are process-wide: Registry
	// carries them for the Replica a process started last, so start every
	// Replica of a process before traffic flows.
	Registry *telemetry.Registry
	Pipeline *bridge.Pipeline
	Server   *session.Server
	QoS      *qos.Controller // nil unless QoSWorkers > 0

	recording
	batching  *session.BatchingHandler
	pool      *parallel.Pool
	stopQoS   func()
	stopDebug func()
}

// Start builds the replica; Serve (or Server.HandleConn) then feeds it
// connections.
// A failed Start has already closed what it had opened.
func (r *Replica) Start() error {
	r.Registry = telemetry.NewRegistry()
	recycle.Instrument(r.Registry)
	if err := r.open(r.Record, binlog.Meta{Label: "serve"}, r.Registry); err != nil {
		return err
	}
	r.Pipeline = &bridge.Pipeline{
		Metrics:       r.Registry,
		VIO:           r.VIO,
		Init:          func(wire.Hello) integrator.State { return integrator.State{} },
		Cam:           func(wire.Hello) sensors.CameraModel { return sensors.VGACamera() },
		RetainTracers: 64,
	}
	var handler session.Handler = r.Pipeline
	if r.QoSWorkers > 0 {
		if err := r.startQoS(); err != nil {
			_ = r.Close(context.Background())
			return fmt.Errorf("qos: %w", err)
		}
		handler = r.batching
	}
	r.Server = session.NewServer(session.Config{
		MaxSessions: r.Net.MaxSessions,
		QueueLen:    r.Net.QueueLen,
		IdleTimeout: time.Duration(r.Net.IdleTimeoutSec * float64(time.Second)),
		Capture:     r.capture,
		Metrics:     r.Registry,
	}, handler)
	if r.DebugAddr != "" {
		dbg := &debughttp.Server{Metrics: r.Registry, Sessions: r.Server,
			Mem:       telemetry.NewRuntimeMem(r.Registry),
			Node:      r.Node,
			SpanDumps: func() []stitch.Dump { return r.Pipeline.Dumps(r.Node) },
		}
		if r.QoS != nil {
			dbg.QoS = r.QoS
		}
		bound, stop, err := dbg.Serve(r.DebugAddr)
		if err != nil {
			_ = r.Close(context.Background())
			return fmt.Errorf("debug endpoint: %w", err)
		}
		r.DebugAddr, r.stopDebug = bound, stop
	}
	return nil
}

// Live QoS cadence: the batcher flushes every flush window (bounding
// added camera latency to ~2 ms) and the controller closes an epoch
// every qosEpoch.
const (
	qosEpoch      = 50 * time.Millisecond
	qosFlushEvery = 2 * time.Millisecond
)

// qosConfig is the live controller: two kernels sharing workers against
// the 120 Hz vsync budget, one quality knob each.
func qosConfig(workers int) qos.Config {
	return qos.Config{
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
	}
}

// startQoS interposes cross-session batching in front of the pipeline
// and starts the adaptive controller over it. Both batched kernels —
// camera decode + VIO publish ("imgproc") and QoE scoring ("ssim") —
// dispatch on the one pool the batcher owns; the controller apportions
// workers between the two from the pool's per-kernel latency histograms
// and resizes that pool to the imgproc share every epoch. It also steps
// the two quality knobs, which no kernel reads yet (DESIGN.md §14).
func (r *Replica) startQoS() error {
	workers := max(r.QoSWorkers, 2)
	ctl, err := qos.NewController(qosConfig(workers))
	if err != nil {
		return err
	}
	ctl.Instrument(r.Registry)
	r.QoS = ctl
	r.pool = parallel.New(workers - workers/2)
	r.pool.Instrument(r.Registry)
	pools := map[string]*parallel.Pool{"imgproc": r.pool}
	// the pool observes illixr_parallel_qos_batch_<kernel>_ms on every
	// batched dispatch — that histogram is the controller's signal
	tap := qos.NewRegistryTap(r.Registry, []qos.TapStage{
		{Kernel: "imgproc", Histogram: telemetry.MetricName("parallel", "qos_batch_imgproc_ms")},
		{Kernel: "ssim", Histogram: telemetry.MetricName("parallel", "qos_batch_ssim_ms")},
	})

	batcher := qos.NewBatcher(r.pool)
	batcher.Instrument(r.Registry)
	stopFlush := batcher.AutoFlush(qosFlushEvery)

	r.batching = &session.BatchingHandler{
		Inner:   r.Pipeline,
		Batcher: batcher,
		Types: map[wire.Type]string{
			wire.TypeCamera: "imgproc",
			wire.TypeQoE:    "ssim",
		},
	}
	r.batching.Instrument(r.Registry)

	var stats []qos.KernelStats
	stopEpochs := every(qosEpoch, func() {
		stats = tap.Sample(stats)
		ctl.Step(stats)
		ctl.ApplyWorkers(pools)
	})
	r.stopQoS = func() {
		stopEpochs()
		stopFlush() // one final flush
	}
	return nil
}

// Serve accepts sessions on ln until Close (or a listener error). It blocks.
func (r *Replica) Serve(ln net.Listener) error { return r.Server.Serve(ln) }

// Close takes the replica down in dependency order: stop accepting and
// drain every session up to ctx's deadline (stragglers are then cut) →
// stop the QoS epoch loop and the batcher, whose final flush handles any
// frame still parked → give the pool's workers back → stop the debug
// endpoint → close the capture, which by then nothing records into. A
// frame handled late therefore still reaches the capture, and nothing
// dispatches on a pool after it closed. Every step runs whatever the
// earlier ones returned; a second Close is a no-op.
func (r *Replica) Close(ctx context.Context) error {
	var drainErr error
	if r.Server != nil {
		if drainErr = r.Server.Shutdown(ctx); drainErr != nil {
			drainErr = fmt.Errorf("drain: %w", drainErr)
		}
	}
	if r.stopQoS != nil {
		r.stopQoS()
	}
	r.pool.Close()
	if r.stopDebug != nil {
		r.stopDebug()
	}
	return errors.Join(drainErr, r.recording.close())
}

// WriteTrace writes every session's causal spans, the last 64 ended
// sessions included, as one Chrome trace (-trace-out, /spans).
func (r *Replica) WriteTrace(w io.Writer) error {
	return writeStitched(w, r.Pipeline.Dumps(r.Node))
}

// WriteMetrics writes the registry as the Prometheus text
// /metrics?format=prometheus serves (-metrics-out).
func (r *Replica) WriteMetrics(w io.Writer) error { return r.Registry.WritePrometheus(w) }
