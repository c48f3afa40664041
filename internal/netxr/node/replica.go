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
	// Record captures every session frame, uplink and downlink, into this
	// binlog file, flushed and closed by Close (DESIGN.md §13).
	Record string
	// Node labels this process in stitched traces and span dumps.
	Node string
	// DebugAddr serves /metrics /spans /sessions /debug/pprof/
	// there; Start replaces it with the bound address.
	DebugAddr string

	// Set by Start. recycle's instruments are process-wide: Registry
	// carries them for the Replica a process started last, so start every
	// Replica of a process before traffic flows.
	Registry *telemetry.Registry
	Pipeline *bridge.Pipeline
	Server   *session.Server

	recording
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
	r.Server = session.NewServer(session.Config{
		MaxSessions: r.Net.MaxSessions,
		QueueLen:    r.Net.QueueLen,
		IdleTimeout: time.Duration(r.Net.IdleTimeoutSec * float64(time.Second)),
		Capture:     r.capture,
		Metrics:     r.Registry,
	}, r.Pipeline)
	if r.DebugAddr != "" {
		dbg := &debughttp.Server{Metrics: r.Registry, Sessions: r.Server,
			Mem:       telemetry.NewRuntimeMem(r.Registry),
			Node:      r.Node,
			SpanDumps: func() []stitch.Dump { return r.Pipeline.Dumps(r.Node) },
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

// Serve accepts sessions on ln until Close (or a listener error). It blocks.
func (r *Replica) Serve(ln net.Listener) error { return r.Server.Serve(ln) }

// Close takes the replica down in dependency order: stop accepting and
// drain every session up to ctx's deadline (stragglers are then cut) →
// stop the debug endpoint → close the capture, which by then nothing
// records into. Every step runs whatever the earlier ones returned; a
// second Close is a no-op.
func (r *Replica) Close(ctx context.Context) error {
	var drainErr error
	if r.Server != nil {
		if drainErr = r.Server.Shutdown(ctx); drainErr != nil {
			drainErr = fmt.Errorf("drain: %w", drainErr)
		}
	}
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
