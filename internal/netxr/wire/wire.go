// Package wire is the binary wire protocol of the edge-offload split
// (DESIGN.md §9): length-prefixed frames with a versioned fixed header,
// varint-encoded payloads, and a trailing CRC-32 over the whole frame.
// The header carries the causal-trace reference of the event it wraps, so
// spans survive the network hop and a display frame on the client can
// still be walked back to the IMU sample that produced it — even when
// the integration happened on a server.
//
// Frame layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       2     magic 0x58 0x52 ("XR")
//	2       1     protocol version (Version)
//	3       1     message type (Type)
//	4       8     trace id   (telemetry.TraceID of the wrapped event)
//	12      8     span id    (telemetry.SpanID that produced the event)
//	20      1-5   payload length, unsigned varint, <= MaxPayload
//	...     n     payload (message-specific encoding, messages.go)
//	...     4     CRC-32 (IEEE) over every preceding byte of the frame
//
// Decoding is total: truncated frames, corrupted CRCs, bad magic and
// version skew all return typed errors and never panic (FuzzWireDecode
// enforces this).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"illixr/internal/telemetry"
)

// Magic bytes opening every frame ("XR").
const (
	Magic0 = 0x58
	Magic1 = 0x52
)

// Version is the protocol version this build speaks. A decoder receiving
// any other version returns ErrVersion — the session layer then refuses
// the peer instead of misparsing its stream. v2 added session resume:
// Hello carries a resume token and the client's last-seen downlink seq,
// Welcome answers with the token to present on reconnect plus the resume
// snapshot (last acked uplink seq, pose epoch), and Bye carries a
// machine-readable Retry-After hint for admission-control refusals.
const Version = 2

// MaxPayload bounds a single frame's payload (1 MiB) so a corrupted or
// hostile length prefix cannot make the reader allocate unbounded memory.
const MaxPayload = 1 << 20

// headerLen is the fixed part of the header before the varint length.
const headerLen = 20

// Type identifies the message carried by a frame.
type Type uint8

// Message types. Upstream (client→server): Hello, IMU, Camera, QoE,
// Ping, Bye. Downstream (server→client): Welcome, Pose, Frame, Pong, Bye.
const (
	TypeInvalid Type = 0
	TypeHello   Type = 1
	TypeWelcome Type = 2
	TypeIMU     Type = 3
	TypeCamera  Type = 4
	TypePose    Type = 5
	TypeFrame   Type = 6
	TypeQoE     Type = 7
	TypePing    Type = 8
	TypePong    Type = 9
	TypeBye     Type = 10
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeIMU:
		return "imu"
	case TypeCamera:
		return "camera"
	case TypePose:
		return "pose"
	case TypeFrame:
		return "frame"
	case TypeQoE:
		return "qoe"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeBye:
		return "bye"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Decode errors. ErrTruncated wraps io.ErrUnexpectedEOF semantics for
// slice-based decoding; the streaming Reader returns io errors directly.
var (
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: protocol version mismatch")
	ErrTooLarge  = errors.New("wire: payload length exceeds MaxPayload")
	ErrCRC       = errors.New("wire: CRC mismatch")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrShortPay  = errors.New("wire: payload too short")
	ErrTrailing  = errors.New("wire: trailing bytes after payload")
)

// Frame is one decoded protocol frame: the message type, the causal-trace
// reference of the wrapped event, and the raw payload (decode it with the
// matching Decode* function from messages.go).
type Frame struct {
	Type    Type
	Trace   telemetry.SpanRef
	Payload []byte
}

// AppendFrame encodes f onto dst and returns the extended slice. The
// payload is copied, so f.Payload may be reused immediately.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = append(dst, Magic0, Magic1, Version, byte(f.Type))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Trace.Trace))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Trace.Span))
	dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
	dst = append(dst, f.Payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// Decode parses one frame from the front of b, returning the frame and
// the number of bytes consumed. The returned payload aliases b.
func Decode(b []byte) (Frame, int, error) {
	var f Frame
	if len(b) < headerLen+1 {
		return f, 0, ErrTruncated
	}
	if b[0] != Magic0 || b[1] != Magic1 {
		return f, 0, ErrMagic
	}
	if b[2] != Version {
		return f, 0, fmt.Errorf("%w: got %d want %d", ErrVersion, b[2], Version)
	}
	f.Type, f.Trace = header(b)
	n, vlen := binary.Uvarint(b[headerLen:])
	if vlen <= 0 {
		return f, 0, ErrTruncated
	}
	if n > MaxPayload {
		return f, 0, ErrTooLarge
	}
	total := headerLen + vlen + int(n) + 4
	if len(b) < total {
		return f, 0, ErrTruncated
	}
	body := b[:total-4]
	want := binary.LittleEndian.Uint32(b[total-4 : total])
	if crc32.ChecksumIEEE(body) != want {
		return f, 0, ErrCRC
	}
	f.Payload = b[headerLen+vlen : total-4]
	return f, total, nil
}

// header reads the message type and trace reference out of a fixed
// header whose magic and version have been checked.
func header(b []byte) (Type, telemetry.SpanRef) {
	return Type(b[3]), telemetry.SpanRef{
		Trace: telemetry.TraceID(binary.LittleEndian.Uint64(b[4:12])),
		Span:  telemetry.SpanID(binary.LittleEndian.Uint64(b[12:20])),
	}
}

// Reader decodes frames from a byte stream, buffering internally. Not
// safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte

	frames uint64
	bytes  uint64
}

// readBufSize is the Reader's bufio buffer. Every connection end pays it
// (client, both gateway legs, replica), so it is sized from the traffic,
// not for it. What can be waiting on a connection is what the peer keeps
// in flight: the benchmark's deepest window is 64 IMU samples, ~5.4 KB,
// and a writer puts up to a FlushWindow (64 frames) on the wire at once,
// so the whole window fits; a payload larger than the buffer bypasses it
// (bufio reads straight into the frame scratch). It was 64 KiB: 256 KiB
// zeroed per session. 4 KiB measured the same end to end but tore that
// 64-sample window, so the gateway's coalescing loop flushed short
// (fleet.frames_per_write_up 13.2 -> 11.3 on offload_saturate; DESIGN.md
// §9.1 has the A/B).
const readBufSize = 8 << 10

// scratchFloor is the smallest frame scratch a Reader allocates: room for
// the header and any fixed-size message (Hello, IMU, Pose, Ping, Bye), so
// a session's first frames share one allocation; a camera frame that
// outgrows it at least doubles it.
const scratchFloor = 512

// pooledMax bounds the scratch or pending buffer a released Reader or
// Writer keeps: one outsized camera frame must not pin its buffer in the
// free list for every later connection.
const pooledMax = 64 << 10

// readers and writers are the connection-buffer free lists (DESIGN.md
// §10.1): a session lifecycle's four connection ends take their buffers
// from here and Release gives them back, instead of growing them from
// nothing per connection.
var (
	readers = sync.Pool{New: func() any {
		return &Reader{br: bufio.NewReaderSize(nil, readBufSize), buf: make([]byte, 0, scratchFloor)}
	}}
	writers = sync.Pool{New: func() any {
		return &Writer{buf: make([]byte, 0, writeBufSize)}
	}}
)

// NewReader wraps r for frame decoding, on buffers from the free list.
func NewReader(r io.Reader) *Reader {
	rd := readers.Get().(*Reader)
	rd.br.Reset(r)
	return rd
}

// Release gives the reader's buffers back to the free list. The owner
// calls it exactly once, after its last read; the Reader, and every
// payload or Raw it returned, must not be used afterwards. Unread
// buffered bytes are discarded. An owner that never calls it leaves the
// buffers to the GC.
func (r *Reader) Release() {
	r.br.Reset(nil)
	if cap(r.buf) > pooledMax {
		r.buf = make([]byte, 0, scratchFloor)
	}
	r.buf = r.buf[:0]
	r.frames, r.bytes = 0, 0
	readers.Put(r)
}

// Frames returns the number of frames successfully decoded.
func (r *Reader) Frames() uint64 { return r.frames }

// Bytes returns the number of stream bytes consumed by decoded frames.
func (r *Reader) Bytes() uint64 { return r.bytes }

// ReadFrame reads and verifies the next frame. The returned payload is
// valid until the next ReadFrame, ReadRaw or Release call. io.EOF is
// returned only on a clean frame boundary; a partial frame yields
// io.ErrUnexpectedEOF.
func (r *Reader) ReadFrame() (Frame, error) {
	typ, trace, full, payStart, err := r.readRaw()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Type: typ, Trace: trace, Payload: full[payStart : len(full)-4]}, nil
}

// readRaw reads one verified frame, returning the header peeks, the full
// encoded frame, and the payload offset. The shared body of ReadFrame and
// ReadRaw. A frame already whole in the bufio buffer is verified and
// returned from there (inBuffer); anything else — a frame split across
// reads, one larger than the buffer, or one that fails any check — is
// read into the scratch, which reports the error.
func (r *Reader) readRaw() (Type, telemetry.SpanRef, []byte, int, error) {
	if full, payStart, ok := r.inBuffer(); ok {
		typ, trace := header(full)
		return typ, trace, full, payStart, nil
	}
	var typ Type
	var trace telemetry.SpanRef
	hdr := r.grow(headerLen)
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return typ, trace, nil, 0, io.ErrUnexpectedEOF
		}
		return typ, trace, nil, 0, err
	}
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return typ, trace, nil, 0, ErrMagic
	}
	if hdr[2] != Version {
		return typ, trace, nil, 0, fmt.Errorf("%w: got %d want %d", ErrVersion, hdr[2], Version)
	}
	typ, trace = header(hdr)

	// varint payload length, byte at a time so we never over-read
	var vbuf [binary.MaxVarintLen64]byte
	vlen := 0
	var n uint64
	for {
		c, err := r.br.ReadByte()
		if err != nil {
			return typ, trace, nil, 0, eofToUnexpected(err)
		}
		vbuf[vlen] = c
		vlen++
		if c < 0x80 {
			break
		}
		if vlen == len(vbuf) {
			return typ, trace, nil, 0, ErrTooLarge
		}
	}
	var consumed int
	n, consumed = binary.Uvarint(vbuf[:vlen])
	if consumed <= 0 || n > MaxPayload {
		return typ, trace, nil, 0, ErrTooLarge
	}

	rest := r.grow(headerLen + vlen + int(n) + 4)
	copy(rest, hdr[:headerLen])
	copy(rest[headerLen:], vbuf[:vlen])
	if _, err := io.ReadFull(r.br, rest[headerLen+vlen:]); err != nil {
		return typ, trace, nil, 0, eofToUnexpected(err)
	}
	body := rest[:len(rest)-4]
	want := binary.LittleEndian.Uint32(rest[len(rest)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return typ, trace, nil, 0, ErrCRC
	}
	r.frames++
	r.bytes += uint64(len(rest))
	return typ, trace, rest, headerLen + vlen, nil
}

// inBuffer is readRaw's fast path: when the next frame is already whole
// in the bufio buffer and passes every check, it is consumed (Discard)
// and returned in place — the bytes stay where the last fill put them
// until the next read, which is exactly the aliasing contract the
// scratch copy gave. ok=false consumes nothing, so the scratch path
// reads the same bytes and reports whatever is wrong with them in its
// own order. Raw.SetTrace may patch the returned bytes: they are
// consumed, and nothing reads them again.
func (r *Reader) inBuffer() (full []byte, payStart int, ok bool) {
	b, _ := r.br.Peek(r.br.Buffered()) // never fills: n <= Buffered
	if len(b) < headerLen+1 || b[0] != Magic0 || b[1] != Magic1 || b[2] != Version {
		return nil, 0, false
	}
	n, vlen := binary.Uvarint(b[headerLen:])
	if vlen <= 0 || n > MaxPayload {
		return nil, 0, false
	}
	total := headerLen + vlen + int(n) + 4
	if len(b) < total {
		return nil, 0, false
	}
	full = b[:total:total]
	if crc32.ChecksumIEEE(full[:total-4]) != binary.LittleEndian.Uint32(full[total-4:]) {
		return nil, 0, false
	}
	_, _ = r.br.Discard(total)
	r.frames++
	r.bytes += uint64(total)
	return full, headerLen + vlen, true
}

// grow returns the reader's scratch buffer resized to n bytes. Contents
// are not carried over.
func (r *Reader) grow(n int) []byte {
	if cap(r.buf) < n {
		r.buf = make([]byte, max(n, 2*cap(r.buf), scratchFloor))
	}
	r.buf = r.buf[:n]
	return r.buf
}

func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Writer encodes frames onto a byte stream with a reused buffer. Not
// safe for concurrent use; the session layer serializes writers.
//
// Two write disciplines share one buffer: WriteFrame puts one frame on
// the wire immediately, while Queue/QueueRaw + Flush coalesce a batch
// into a single Write (raw.go) — the FlushWindow path of the session
// writer, the gateway relay and the client uplink.
type Writer struct {
	w      io.Writer
	buf    []byte
	queued int

	frames uint64
	bytes  uint64
}

// writeBufSize pre-sizes a Writer's pending buffer to one FlushWindow of
// uplink traffic: 64 IMU frames are ~5.4 KB, so a coalesced batch never
// regrows it (a nil buffer doubled through its first frames). A window
// that carries a camera frame grows it once, and the writer keeps the
// grown buffer up to pooledMax.
const writeBufSize = 8 << 10

// NewWriter wraps w for frame encoding, on a buffer from the free list.
func NewWriter(w io.Writer) *Writer {
	wr := writers.Get().(*Writer)
	wr.w = w
	return wr
}

// Release gives the writer's buffer back to the free list. The owner
// calls it exactly once, after its last write; the Writer must not be
// used afterwards. Frames queued but not flushed are discarded, never
// written to the next owner's stream. An owner that never calls it
// leaves the buffer to the GC.
func (w *Writer) Release() {
	w.w = nil
	if cap(w.buf) > pooledMax {
		w.buf = make([]byte, 0, writeBufSize)
	}
	w.buf, w.queued = w.buf[:0], 0
	w.frames, w.bytes = 0, 0
	writers.Put(w)
}

// Frames returns the number of frames written.
func (w *Writer) Frames() uint64 { return w.frames }

// Bytes returns the number of stream bytes written.
func (w *Writer) Bytes() uint64 { return w.bytes }

// WriteFrame encodes and writes one frame (Queue + Flush).
func (w *Writer) WriteFrame(f Frame) error {
	w.Queue(f)
	return w.Flush()
}
