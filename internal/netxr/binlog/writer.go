package binlog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// Writer is the single append path of one capture. Record is safe for
// concurrent use from every tap goroutine: the sequence number and the
// wall-receipt stamp are assigned under the writer's lock, so the file
// order IS the receipt order even when the session's reader and writer
// goroutines race into the tap. Buffers are reused across records and
// nothing is kept per record, so the append is allocation-free and the
// writer's memory stays constant however long the capture runs.
type Writer struct {
	mu sync.Mutex
	w  *bufio.Writer
	f  *os.File // nil when writing to a caller-supplied stream

	meta  Meta
	start time.Time
	now   func() float64 // seconds since capture start

	buf []byte
	off uint64
	seq uint64

	m      metrics
	err    error
	closed bool
}

// Create opens a capture file at path. reg may be nil.
func Create(path string, meta Meta, reg *telemetry.Registry) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := newWriter(bufio.NewWriterSize(f, 1<<16), meta, reg)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// NewWriter starts a capture onto an arbitrary stream (tests record
// into byte buffers). The header is written immediately.
func NewWriter(out io.Writer, meta Meta, reg *telemetry.Registry) (*Writer, error) {
	bw, ok := out.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(out, 1<<16)
	}
	return newWriter(bw, meta, reg)
}

func newWriter(bw *bufio.Writer, meta Meta, reg *telemetry.Registry) (*Writer, error) {
	if meta.CreatedUnixNano == 0 {
		meta.CreatedUnixNano = time.Now().UnixNano()
	}
	w := &Writer{w: bw, meta: meta, start: time.Now(), m: newMetrics(reg)}
	w.now = func() float64 { return time.Since(w.start).Seconds() }
	w.buf = appendHeader(w.buf[:0], meta)
	if _, err := bw.Write(w.buf); err != nil {
		return nil, err
	}
	w.off = uint64(len(w.buf))
	return w, nil
}

// Meta returns the capture's metadata header.
func (w *Writer) Meta() Meta { return w.meta }

// SetClock overrides the wall-receipt clock (seconds since capture
// start). Deterministic tests and virtual-time captures install their
// own; production taps keep the default monotonic clock.
func (w *Writer) SetClock(now func() float64) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// Record appends one frame stamped with the current clock.
func (w *Writer) Record(dir Dir, f wire.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recordLocked(dir, w.now(), f)
}

// RecordAt appends one frame with an explicit wall-receipt stamp
// (virtual-time captures).
func (w *Writer) RecordAt(dir Dir, wall float64, f wire.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recordLocked(dir, wall, f)
}

func (w *Writer) recordLocked(dir Dir, wall float64, f wire.Frame) error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	rec := Record{Dir: dir, Seq: w.seq, Wall: wall, Frame: f}
	w.buf = appendRecord(w.buf[:0], rec)
	return w.commitLocked()
}

// RecordRaw appends one already-encoded frame stamped with the current
// clock: the zero-copy relay's tap. The record is byte-identical to a
// Record of the decoded equivalent — the body embeds the frame's wire
// bytes either way — so raw and decoded captures of the same traffic
// produce the same file. The raw bytes are copied synchronously; the
// caller's scratch may be reused on return.
func (w *Writer) RecordRaw(dir Dir, raw wire.Raw) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.buf = appendRecordRaw(w.buf[:0], dir, w.seq, w.now(), raw.Bytes)
	return w.commitLocked()
}

// commitLocked writes the encoded record in w.buf and advances the
// offset, sequence and counters.
func (w *Writer) commitLocked() error {
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = fmt.Errorf("binlog: append: %w", err)
		return w.err
	}
	w.off += uint64(len(w.buf))
	w.seq++
	w.m.records.Inc()
	w.m.bytes.Add(len(w.buf))
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Bytes returns the number of log bytes produced so far (header included).
func (w *Writer) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Close flushes the log and, for file-backed captures, closes the
// file. Idempotent; the first error wins.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}
