package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// The free lists are sync.Pools: a Put object usually comes straight back
// to the next Get on the same goroutine, but the race detector drops a
// share of Puts on purpose. reissue retries until the released object is
// handed out again, so the tests below always exercise a reused one.
const reissueTries = 200

// dirtyReader leaves a Reader the way a severed connection does: one
// whole frame read, more frames buffered but unread, the next one torn.
func dirtyReader(t *testing.T, stream []byte) *Reader {
	t.Helper()
	cut := len(stream) - 7 // a torn half-frame at the end
	r := NewReader(bytes.NewReader(stream[:cut]))
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.FrameBuffered(); !ok {
		t.Fatal("the dirty reader holds no unread frame")
	}
	return r
}

// A Reader released with unread buffered bytes and a torn frame, then
// reissued on a new connection, yields exactly the new connection's
// frames — however they arrive — and counts from zero.
func TestReaderReleaseReissueReadsOnlyTheNewConn(t *testing.T) {
	old, _ := uplinkBursts(2)
	stream, ends := uplinkBursts(3)
	var want []Frame
	for rest := stream; len(rest) > 0; {
		f, n, err := Decode(rest)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
		rest = rest[n:]
	}
	for name, src := range map[string]func() io.Reader{
		"bursts":  func() io.Reader { return &burstReader{stream: stream, ends: ends} },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
	} {
		var r *Reader
		for try := 0; r == nil; try++ {
			if try == reissueTries {
				t.Fatalf("%s: the released Reader was never reissued", name)
			}
			dirty := dirtyReader(t, old)
			dirty.Release()
			if got := NewReader(src()); got == dirty {
				r = got
			} else {
				got.Release()
			}
		}
		if r.Frames() != 0 || r.Bytes() != 0 {
			t.Fatalf("%s: reissued Reader counts %d frames %d B, want 0", name, r.Frames(), r.Bytes())
		}
		for i, w := range want {
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got.Type != w.Type || got.Trace != w.Trace || !bytes.Equal(got.Payload, w.Payload) {
				t.Fatalf("%s: frame %d is not the new conn's frame %d", name, i, i)
			}
		}
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("%s: after the new conn's last frame: %v, want io.EOF", name, err)
		}
		r.Release()
	}
}

// A Writer released with frames queued but not flushed never writes them
// to the next owner's stream, and counts from zero.
func TestWriterReleaseDropsQueuedFrames(t *testing.T) {
	stale := Frame{Type: TypePing, Payload: AppendPing(nil, Ping{Seq: 666})}
	fresh := Frame{Type: TypePing, Payload: AppendPing(nil, Ping{Seq: 1})}
	for try := 0; ; try++ {
		if try == reissueTries {
			t.Fatal("the released Writer was never reissued")
		}
		var first bytes.Buffer
		w := NewWriter(&first)
		if err := w.WriteFrame(fresh); err != nil {
			t.Fatal(err)
		}
		w.Queue(stale)
		w.Queue(stale)
		w.Release()

		var next bytes.Buffer
		w2 := NewWriter(&next)
		if w2 != w {
			w2.Release()
			continue
		}
		if w2.Frames() != 0 || w2.Bytes() != 0 || w2.Queued() != 0 {
			t.Fatalf("reissued Writer: %d frames %d B %d queued, want 0", w2.Frames(), w2.Bytes(), w2.Queued())
		}
		if err := w2.Flush(); err != nil || next.Len() != 0 {
			t.Fatalf("a flush on the reissued Writer wrote %d B (err %v), want nothing", next.Len(), err)
		}
		if err := w2.WriteFrame(fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(next.Bytes(), AppendFrame(nil, fresh)) {
			t.Fatal("the reissued Writer's stream holds more than its own frame")
		}
		if first.Len() != len(AppendFrame(nil, fresh)) {
			t.Fatalf("the first owner's stream got %d B after Release", first.Len())
		}
		w2.Release()
		return
	}
}
