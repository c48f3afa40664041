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
// goroutines race into the tap. Buffers are reused across records, so
// the steady-state append is allocation-free apart from the amortized
// growth of the in-memory index.
type Writer struct {
	mu      sync.Mutex
	w       *bufio.Writer
	f       *os.File // nil when writing to a caller-supplied stream
	idxPath string   // sidecar path written on Close ("" = none)

	meta  Meta
	start time.Time
	now   func() float64 // seconds since capture start

	buf     []byte
	off     uint64
	seq     uint64
	entries []Entry
	up      uint64
	down    uint64
	byType  [256]uint64

	m      metrics
	err    error
	closed bool
}

// Create opens a capture file at path (and, on Close, a sidecar index
// at path+".idx"). reg may be nil.
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
	w.idxPath = path + IndexSuffix
	return w, nil
}

// NewWriter starts a capture onto an arbitrary stream (tests record
// into byte buffers). The header is written immediately; the index is
// kept in memory and available via Index after Close.
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

// Reserve pre-grows the in-memory index so a capture of a known size
// appends with zero allocations.
func (w *Writer) Reserve(records int) {
	w.mu.Lock()
	if cap(w.entries) < records {
		grown := make([]Entry, len(w.entries), records)
		copy(grown, w.entries)
		w.entries = grown
	}
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
	return w.commitLocked(dir, f.Type)
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
	return w.commitLocked(dir, raw.Type)
}

// commitLocked writes the encoded record in w.buf and advances the
// index and counters.
func (w *Writer) commitLocked(dir Dir, typ wire.Type) error {
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = fmt.Errorf("binlog: append: %w", err)
		return w.err
	}
	w.entries = append(w.entries, Entry{Seq: w.seq, Off: w.off, Type: typ, Dir: dir})
	w.off += uint64(len(w.buf))
	w.seq++
	if dir == DirUp {
		w.up++
	} else {
		w.down++
	}
	w.byType[typ]++
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

// Index returns the capture's index (meta echo, counts, seq→offset
// entries). Call after the last Record; the returned value snapshots
// the current state.
func (w *Writer) Index() *Index {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.indexLocked()
}

func (w *Writer) indexLocked() *Index {
	ix := &Index{
		Meta:     w.meta,
		Records:  w.seq,
		LogBytes: w.off,
		Up:       w.up,
		Down:     w.down,
		ByType:   map[wire.Type]uint64{},
		Entries:  append([]Entry(nil), w.entries...),
	}
	for t, n := range w.byType {
		if n > 0 {
			ix.ByType[wire.Type(t)] = n
		}
	}
	return ix
}

// Close flushes the log and, for file-backed captures, writes the
// sidecar index and closes the file. Idempotent; the first error wins.
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
		if w.idxPath != "" && w.err == nil {
			ix := w.indexLocked()
			if err := os.WriteFile(w.idxPath, AppendIndex(nil, ix), 0o644); err != nil {
				w.err = err
			}
		}
	}
	return w.err
}
