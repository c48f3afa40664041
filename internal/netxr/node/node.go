// Package node is the composition root of the networked half of the
// system: it stands an offload replica (illixr-serve), a fleet gateway
// (illixr-gateway) and a device client (illixr-client) up from one struct
// literal each, and takes them down again in a fixed order (DESIGN.md
// §9.2). The commands are flag parsing around these three types; the
// in-process fleets of internal/bench are the same Gateway over pipes.
//
// Each type is filled in, then started: Start builds everything the
// node owns and sets the exported fields documented "set by Start";
// Close gives everything back — sessions, goroutines, pool workers, the
// debug endpoint, the capture — and may be called twice.
package node

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/stitch"
)

// recording is the -record half the three nodes share: one binlog
// capture, opened by Start and closed last by Close, once every
// goroutine that records into it has quiesced.
type recording struct{ capture *binlog.Writer }

func (r *recording) open(path string, meta binlog.Meta, reg *telemetry.Registry) error {
	if path == "" {
		return nil
	}
	w, err := binlog.Create(path, meta, reg)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	r.capture = w
	return nil
}

// close flushes and closes the capture file; late records are refused,
// never lost mid-file. Idempotent, as binlog.Writer.Close is.
func (r *recording) close() error {
	if r.capture == nil {
		return nil
	}
	if err := r.capture.Close(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// Recorded returns the number of frames captured so far (0 without Record).
func (r *recording) Recorded() uint64 {
	if r.capture == nil {
		return 0
	}
	return r.capture.Count()
}

// writeStitched merges span dumps into one trace (an id collision between
// nodes is an error) and writes it as Chrome trace JSON.
func writeStitched(w io.Writer, dumps []stitch.Dump) error {
	tr, err := stitch.Stitch(dumps...)
	if err != nil {
		return err
	}
	return tr.WriteChromeTrace(w)
}

// every runs tick on its own goroutine each interval until the returned
// stop is called; stop returns once that goroutine has exited (a tick in
// flight finishes first) and may be called again.
func every(interval time.Duration, tick func()) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick()
			case <-done:
				return
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(done)
		<-exited
	})
}

// CheckPositive returns a usage error for the first named flag of fs
// whose value is not a number > 0. A command prints it with its usage and
// exits 2, as flag does for a value it cannot parse: a negative cap,
// queue or hint passes flag's own parse and then refuses every session
// it meets, or wraps into a ~49.7-day reconnect hint.
func CheckPositive(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		f := fs.Lookup(name)
		if f == nil {
			return fmt.Errorf("no flag -%s", name)
		}
		if v, err := strconv.ParseFloat(f.Value.String(), 64); err != nil || !(v > 0) {
			return fmt.Errorf("invalid value %s for flag -%s: must be positive", f.Value, name)
		}
	}
	return nil
}

// drainBound is how long Run lets sessions and relays finish on their
// own before Close cuts them.
const drainBound = 5 * time.Second

// Run is a serving command after its banner: it serves ln until ctx is
// done (the command's signal context) or the listener fails, closes the
// node within drainBound, then writes its stitched trace and its metrics
// to the named files (an empty path skips that file), reporting each
// step on stdout. A drain that ran out of time has still stopped
// everything, so the files are written before that error is returned.
func Run(ctx context.Context, n interface {
	Serve(net.Listener) error
	Close(context.Context) error
	WriteTrace(io.Writer) error
	WriteMetrics(io.Writer) error
}, ln net.Listener, stdout io.Writer, traceOut, metricsOut string) error {
	served := make(chan error, 1)
	go func() { served <- n.Serve(ln) }()
	var serveErr error
	select {
	case err := <-served:
		serveErr = fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		fmt.Fprintln(stdout, "\ndraining…")
	}
	closeCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainBound)
	defer cancel()
	closeErr := errors.Join(serveErr, n.Close(closeCtx))
	for _, o := range []struct {
		flag, path string
		write      func(io.Writer) error
	}{{"trace-out", traceOut, n.WriteTrace}, {"metrics-out", metricsOut, n.WriteMetrics}} {
		if o.path == "" {
			continue
		}
		if err := telemetry.WriteFile(o.path, o.write); err != nil {
			return errors.Join(closeErr, fmt.Errorf("%s: %w", o.flag, err))
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.path)
	}
	return closeErr
}
