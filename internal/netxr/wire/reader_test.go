package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// uplinkBursts is the traffic readBufSize was sized from: FlushWindow-frame
// bursts of IMU samples with a camera frame in every other one, then one
// camera frame whose payload is larger than the read buffer. It returns
// the stream and where each burst (one peer Write) ends.
func uplinkBursts(bursts int) (stream []byte, ends []int) {
	var payload []byte
	seq := 0
	for b := 0; b < bursts; b++ {
		for i := 0; i < FlushWindow; i++ {
			seq++
			ref := telemetry.SpanRef{Trace: telemetry.TraceID(seq), Span: telemetry.SpanID(seq + 1)}
			if i == FlushWindow-1 && b%2 == 1 {
				feats := make([]sensors.FeatureObs, 40)
				for j := range feats {
					feats[j] = sensors.FeatureObs{ID: j + seq, U: float64(j), V: float64(seq)}
				}
				payload = AppendCamera(payload[:0], sensors.CameraFrame{Seq: seq, T: float64(seq) / 15, Features: feats})
				stream = AppendFrame(stream, Frame{Type: TypeCamera, Trace: ref, Payload: payload})
				continue
			}
			payload = AppendIMU(payload[:0], sensors.IMUSample{T: float64(seq) / 500})
			stream = AppendFrame(stream, Frame{Type: TypeIMU, Trace: ref, Payload: payload})
		}
		ends = append(ends, len(stream))
	}
	feats := make([]sensors.FeatureObs, 600)
	for j := range feats {
		feats[j] = sensors.FeatureObs{ID: j, U: float64(j) + 0.5, V: float64(j) - 0.5}
	}
	payload = AppendCamera(payload[:0], sensors.CameraFrame{Seq: seq + 1, T: 9, Features: feats})
	stream = AppendFrame(stream, Frame{Type: TypeCamera, Payload: payload})
	ends = append(ends, len(stream))
	return stream, ends
}

// burstReader hands out one burst per Read, as a socket does after one
// coalesced Write (clipped to the caller's buffer), then io.EOF.
type burstReader struct {
	stream []byte
	ends   []int
	pos    int
}

func (b *burstReader) Read(p []byte) (int, error) {
	if b.pos == len(b.stream) {
		return 0, io.EOF
	}
	for b.ends[0] <= b.pos {
		b.ends = b.ends[1:]
	}
	n := copy(p, b.stream[b.pos:b.ends[0]])
	b.pos += n
	return n, nil
}

// TestReaderMatchesSliceDecoder: however the bytes arrive — all at once, a
// burst per Read, a byte per Read — the streaming Reader must yield exactly
// the frames the slice decoder finds, including the one that does not fit
// its read buffer, and end on a clean io.EOF.
func TestReaderMatchesSliceDecoder(t *testing.T) {
	stream, ends := uplinkBursts(6)
	var want []Frame
	for rest := stream; len(rest) > 0; {
		f, n, err := Decode(rest)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		want = append(want, f)
		rest = rest[n:]
	}
	if last := want[len(want)-1]; len(last.Payload) <= readBufSize {
		t.Fatalf("the large camera frame (%d B) fits the %d B read buffer", len(last.Payload), readBufSize)
	}
	sources := map[string]io.Reader{
		"whole":   bytes.NewReader(stream),
		"bursts":  &burstReader{stream: stream, ends: ends},
		"onebyte": iotest.OneByteReader(bytes.NewReader(stream)),
	}
	for name, src := range sources {
		r := NewReader(src)
		for i, w := range want {
			var got Frame
			var err error
			if i%2 == 0 {
				got, err = r.ReadFrame()
			} else {
				var raw Raw
				if raw, err = r.ReadRaw(); err == nil {
					got, _, err = Decode(raw.Bytes)
				}
			}
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got.Type != w.Type || got.Trace != w.Trace || !bytes.Equal(got.Payload, w.Payload) {
				t.Fatalf("%s: frame %d differs from the slice decoder's", name, i)
			}
		}
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		if r.Frames() != uint64(len(want)) || r.Bytes() != uint64(len(stream)) {
			t.Fatalf("%s: counted %d frames %d B, want %d and %d", name, r.Frames(), r.Bytes(), len(want), len(stream))
		}
	}
}

// TestFrameBufferedCoversABurst: after the first frame of a burst the rest
// of the window must already be buffered (the coalescing loops drain it
// without blocking), and nothing beyond it.
func TestFrameBufferedCoversABurst(t *testing.T) {
	stream, ends := uplinkBursts(2)
	r := NewReader(&burstReader{stream: stream, ends: ends})
	for burst := 0; burst < 2; burst++ {
		for i := 0; i < FlushWindow; i++ {
			if _, err := r.ReadRaw(); err != nil {
				t.Fatal(err)
			}
			want := i < FlushWindow-1
			if _, got := r.FrameBuffered(); got != want {
				t.Fatalf("burst %d after frame %d: FrameBuffered=%v, want %v", burst, i, got, want)
			}
		}
	}
}

// sink keeps benchmark results live.
var sink int

// BenchmarkNewReaderFirstFrame is what a connection end pays before it has
// decoded anything: the Reader, its buffers, and one header + IMU frame.
func BenchmarkNewReaderFirstFrame(b *testing.B) {
	stream, _ := uplinkBursts(1)
	src := bytes.NewReader(stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(stream)
		f, err := NewReader(src).ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		sink += len(f.Payload)
	}
}

// BenchmarkReadFrameBurst is the steady state: FlushWindow frames per
// underlying Read, one op per burst.
func BenchmarkReadFrameBurst(b *testing.B) {
	stream, ends := uplinkBursts(1)
	stream, ends = stream[:ends[0]], ends[:1]
	src := &burstReader{}
	r := NewReader(src)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*src = burstReader{stream: stream, ends: ends}
		for j := 0; j < FlushWindow; j++ {
			f, err := r.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			sink += len(f.Payload)
		}
	}
}
