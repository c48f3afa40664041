package wire

import (
	"encoding/binary"
	"hash/crc32"

	"illixr/internal/telemetry"
)

// Raw is one verified frame in its encoded form: the gateway's relay
// currency (DESIGN.md §15). Type and Trace are peeked from the fixed
// header; Bytes is the complete frame — header, varint length, payload
// and CRC — exactly as it arrived. Forwarding a Raw skips the payload
// decode and the re-encode CRC pass a Frame round trip would pay.
//
// Ownership: a Raw returned by ReadRaw aliases the reader's buffers (its
// bufio buffer when the frame arrived whole, its scratch otherwise) and
// is valid only until the next ReadFrame/ReadRaw or Release on that
// reader. Anyone who needs the bytes beyond that point must copy them
// before the next read — Writer.QueueRaw and binlog's RecordRaw both copy
// synchronously, so handing a Raw straight to either is safe.
type Raw struct {
	Type  Type
	Trace telemetry.SpanRef
	Bytes []byte
}

// SetTrace rewrites the frame's trace reference in place and recomputes
// the trailing CRC — the only mutation the zero-copy relay performs
// (hop-span stitching). The payload is untouched.
func (r *Raw) SetTrace(ref telemetry.SpanRef) {
	b := r.Bytes
	binary.LittleEndian.PutUint64(b[4:12], uint64(ref.Trace))
	binary.LittleEndian.PutUint64(b[12:20], uint64(ref.Span))
	sum := crc32.ChecksumIEEE(b[:len(b)-4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
	r.Trace = ref
}

// ReadRaw reads and verifies the next frame without slicing out the
// payload: same validation as ReadFrame (magic, version, length bound,
// CRC), but the caller gets the whole encoded frame for pass-through.
// The returned Raw aliases the reader's buffers (see Raw).
func (r *Reader) ReadRaw() (Raw, error) {
	typ, trace, full, _, err := r.readRaw()
	if err != nil {
		return Raw{}, err
	}
	return Raw{Type: typ, Trace: trace, Bytes: full}, nil
}

// FrameBuffered reports whether a complete frame is already sitting in
// the reader's buffer, so the next ReadFrame/ReadRaw cannot block. The
// write-coalescing loops use it to drain a burst into one flush without
// stalling on a quiet wire. Conservative: an unparseable length prefix
// counts as buffered so the caller reads (and surfaces) the error now.
func (r *Reader) FrameBuffered() bool {
	n := r.br.Buffered()
	if n < headerLen+1 {
		return false
	}
	peek := headerLen + binary.MaxVarintLen64
	if peek > n {
		peek = n
	}
	b, err := r.br.Peek(peek)
	if err != nil {
		return false
	}
	ln, vlen := binary.Uvarint(b[headerLen:])
	if vlen < 0 {
		return true // overflowed varint: the next read errors immediately
	}
	if vlen == 0 {
		return false // varint continues past what is buffered
	}
	if ln > MaxPayload {
		return true // hostile length: the next read errors immediately
	}
	return n >= headerLen+vlen+int(ln)+4
}

// FlushWindow is the most frames any writer in the offload stack lets sit
// queued before it flushes: the session writer, both gateway relay
// directions and the client uplink all queue while more frames are
// already waiting and flush on exhaustion or at this bound (DESIGN.md
// §15.3), so a lone frame never waits and a burst costs one Write per
// window. It is one whole in-flight window: the deepest any workload
// keeps is 64 IMU samples per session, so a saturated session's backlog
// rides a single Write rather than four.
const FlushWindow = 64

// Queue encodes f onto the writer's pending buffer without writing.
// Call Flush to put the whole batch on the wire in one Write — the
// writev-style coalescing the session writer and gateway relay use.
func (w *Writer) Queue(f Frame) {
	w.buf = AppendFrame(w.buf, f)
	w.queued++
}

// QueueRaw appends an already-encoded frame to the pending buffer
// (copying it, so the buffer the Raw aliases may be reused immediately).
func (w *Writer) QueueRaw(r Raw) {
	w.buf = append(w.buf, r.Bytes...)
	w.queued++
}

// Queued returns the number of frames queued since the last Flush.
func (w *Writer) Queued() int { return w.queued }

// Flush writes every queued frame in one Write. A no-op with nothing
// queued. On error the batch is discarded (the stream is torn anyway)
// and the frame counter only advances for successful flushes.
func (w *Writer) Flush() error {
	if w.queued == 0 {
		w.buf = w.buf[:0]
		return nil
	}
	n, err := w.w.Write(w.buf)
	w.bytes += uint64(n)
	w.buf = w.buf[:0]
	q := w.queued
	w.queued = 0
	if err != nil {
		return err
	}
	w.frames += uint64(q)
	return nil
}
