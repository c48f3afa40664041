package wire

import (
	"bytes"
	"io"
	"testing"

	"illixr/internal/telemetry"
)

func rawTestFrames() []Frame {
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []Frame{
		{Type: TypeIMU, Trace: telemetry.SpanRef{Trace: 7, Span: 9}, Payload: []byte{1, 2, 3}},
		{Type: TypePose, Payload: []byte{4, 5, 6, 7}},
		{Type: TypeFrame, Trace: telemetry.SpanRef{Trace: 1, Span: 2}, Payload: big},
		{Type: TypePing, Payload: nil},
		{Type: TypeBye, Payload: []byte("bye")},
	}
}

// TestReadRawRoundTrip: ReadRaw must verify like ReadFrame, peek the
// header fields, and return bytes that re-decode to the original frame.
func TestReadRawRoundTrip(t *testing.T) {
	frames := rawTestFrames()
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	r := NewReader(bytes.NewReader(stream))
	var out bytes.Buffer
	w := NewWriter(&out)
	for i, want := range frames {
		raw, err := r.ReadRaw()
		if err != nil {
			t.Fatalf("frame %d: ReadRaw: %v", i, err)
		}
		if raw.Type != want.Type || raw.Trace != want.Trace {
			t.Fatalf("frame %d: peeked %v/%v, want %v/%v", i, raw.Type, raw.Trace, want.Type, want.Trace)
		}
		got, n, err := Decode(raw.Bytes)
		if err != nil || n != len(raw.Bytes) {
			t.Fatalf("frame %d: raw bytes do not decode: %v (n=%d len=%d)", i, err, n, len(raw.Bytes))
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		w.QueueRaw(raw)
		if err := w.Flush(); err != nil {
			t.Fatalf("frame %d: QueueRaw+Flush: %v", i, err)
		}
	}
	if _, err := r.ReadRaw(); err != io.EOF {
		t.Fatalf("after stream: err=%v, want EOF", err)
	}
	if !bytes.Equal(out.Bytes(), stream) {
		t.Fatal("QueueRaw pass-through is not byte-identical to the source stream")
	}
	if r.Frames() != uint64(len(frames)) || w.Frames() != uint64(len(frames)) {
		t.Fatalf("counters: read %d written %d, want %d", r.Frames(), w.Frames(), len(frames))
	}
}

// TestRawSetTrace: the in-place trace rewrite must leave a valid frame
// whose payload is untouched and whose CRC verifies.
func TestRawSetTrace(t *testing.T) {
	src := AppendFrame(nil, Frame{Type: TypeCamera,
		Trace: telemetry.SpanRef{Trace: 11, Span: 22}, Payload: []byte{9, 8, 7, 6, 5}})
	r := NewReader(bytes.NewReader(src))
	raw, err := r.ReadRaw()
	if err != nil {
		t.Fatal(err)
	}
	ref := telemetry.SpanRef{Trace: 11, Span: 12345}
	raw.SetTrace(ref)
	if raw.Trace != ref {
		t.Fatalf("Raw.Trace = %v, want %v", raw.Trace, ref)
	}
	f, n, err := Decode(raw.Bytes)
	if err != nil || n != len(raw.Bytes) {
		t.Fatalf("rewritten frame does not decode: %v", err)
	}
	if f.Trace != ref {
		t.Fatalf("decoded trace %v, want %v", f.Trace, ref)
	}
	if !bytes.Equal(f.Payload, []byte{9, 8, 7, 6, 5}) {
		t.Fatal("payload disturbed by SetTrace")
	}
}

// TestReadRawErrors: raw reads reject the same corruption ReadFrame does.
func TestReadRawErrors(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: TypeIMU, Payload: []byte{1, 2, 3}})
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := NewReader(bytes.NewReader(corrupt)).ReadRaw(); err != errCRC {
		t.Fatalf("corrupt CRC: err=%v, want ErrCRC", err)
	}
	if _, err := NewReader(bytes.NewReader(good[:5])).ReadRaw(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: err=%v, want ErrUnexpectedEOF", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'Z'
	if _, err := NewReader(bytes.NewReader(bad)).ReadRaw(); err != errMagic {
		t.Fatalf("bad magic: err=%v, want ErrMagic", err)
	}
}

// blockingReader serves one prefilled chunk, then blocks forever would
// be a deadlock — instead it errors, so a FrameBuffered bug fails fast.
type oneShotReader struct {
	data []byte
	done bool
}

func (o *oneShotReader) Read(p []byte) (int, error) {
	if o.done {
		return 0, io.ErrNoProgress // a blocking read would hang the test
	}
	o.done = true
	n := copy(p, o.data)
	return n, nil
}

// TestFrameBuffered: with two whole frames and a torn third in the
// buffer, exactly two non-blocking reads must be possible, and the peek
// names the type of the whole frame it finds.
func TestFrameBuffered(t *testing.T) {
	f1 := AppendFrame(nil, Frame{Type: TypeIMU, Payload: []byte{1}})
	f2 := AppendFrame(nil, Frame{Type: TypePose, Payload: []byte{2, 3}})
	f3 := AppendFrame(nil, Frame{Type: TypeQoE, Payload: []byte{4, 5, 6}})
	stream := append(append(append([]byte(nil), f1...), f2...), f3[:len(f3)-3]...)

	r := NewReader(&oneShotReader{data: stream})
	if typ, ok := r.FrameBuffered(); ok || typ != TypeInvalid {
		t.Fatalf("nothing read yet: bufio buffer is empty, FrameBuffered = %v %v, want invalid false", typ, ok)
	}
	if _, err := r.ReadRaw(); err != nil { // fills the bufio buffer
		t.Fatal(err)
	}
	if typ, ok := r.FrameBuffered(); !ok || typ != TypePose {
		t.Fatalf("a complete pose frame is buffered, FrameBuffered = %v %v, want pose true", typ, ok)
	}
	if _, err := r.ReadRaw(); err != nil {
		t.Fatal(err)
	}
	if typ, ok := r.FrameBuffered(); ok || typ != TypeInvalid {
		t.Fatalf("only a torn qoe frame remains, FrameBuffered = %v %v, want invalid false", typ, ok)
	}
}

// TestWriterCoalesce: a queued batch must hit the wire as one Write
// whose bytes are identical to per-frame writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

func TestWriterCoalesce(t *testing.T) {
	frames := rawTestFrames()
	var ref bytes.Buffer
	wr := NewWriter(&ref)
	for _, f := range frames {
		if err := wr.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}

	var out countingWriter
	w := NewWriter(&out)
	for _, f := range frames {
		w.Queue(f)
	}
	if w.Queued() != len(frames) {
		t.Fatalf("Queued() = %d, want %d", w.Queued(), len(frames))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.writes != 1 {
		t.Fatalf("coalesced batch took %d writes, want 1", out.writes)
	}
	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		t.Fatal("coalesced bytes differ from per-frame writes")
	}
	if w.Frames() != uint64(len(frames)) || w.Bytes() != uint64(ref.Len()) {
		t.Fatalf("counters: frames %d bytes %d, want %d/%d", w.Frames(), w.Bytes(), len(frames), ref.Len())
	}
	if err := w.Flush(); err != nil { // empty flush is a no-op
		t.Fatal(err)
	}
	if out.writes != 1 {
		t.Fatal("empty Flush must not touch the wire")
	}
}
