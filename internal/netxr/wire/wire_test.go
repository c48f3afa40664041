package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

func testFrame(t Type, payload []byte) Frame {
	return Frame{
		Type:    t,
		Trace:   telemetry.SpanRef{Trace: 0xdeadbeefcafe, Span: 0x1234},
		Payload: payload,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xab}, 300), make([]byte, MaxPayload)} {
		in := testFrame(TypeIMU, payload)
		enc := AppendFrame(nil, in)
		out, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode payload len %d: %v", len(payload), err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if out.Type != in.Type || out.Trace != in.Trace || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, testFrame(TypePose, []byte{1, 2, 3}))

	// every strict prefix must report truncation, never panic
	for i := 0; i < len(valid); i++ {
		if _, _, err := Decode(valid[:i]); err == nil {
			t.Fatalf("prefix %d decoded", i)
		}
	}

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'Y'
	if _, _, err := Decode(badMagic); !errors.Is(err, errMagic) {
		t.Fatalf("magic: %v", err)
	}

	skew := append([]byte(nil), valid...)
	skew[2] = Version + 1
	if _, _, err := Decode(skew); !errors.Is(err, errVersion) {
		t.Fatalf("version: %v", err)
	}

	flip := append([]byte(nil), valid...)
	flip[len(flip)-6] ^= 0x40 // payload byte: CRC must catch it
	if _, _, err := Decode(flip); !errors.Is(err, errCRC) {
		t.Fatalf("crc: %v", err)
	}

	// hostile length prefix: claims more than MaxPayload
	huge := AppendFrame(nil, testFrame(TypeIMU, nil))[:headerLen]
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // ~34 GiB varint
	if _, _, err := Decode(huge); !errors.Is(err, errTooLarge) {
		t.Fatalf("too large: %v", err)
	}
}

func TestReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := []Frame{
		testFrame(TypeHello, AppendHello(nil, Hello{Proto: Version, App: "t", IMURateHz: 500, CamRateHz: 15})),
		testFrame(TypeIMU, bytes.Repeat([]byte{7}, 56)),
		testFrame(TypeBye, nil),
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if w.Frames() != 3 || w.Bytes() != uint64(buf.Len()) {
		t.Fatalf("writer counters: %d frames %d bytes (buf %d)", w.Frames(), w.Bytes(), buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	// the stream ends exactly on a frame boundary: clean io.EOF
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF at boundary, got %v", err)
	}
	if r.Frames() != 3 {
		t.Fatalf("reader frames = %d", r.Frames())
	}
}

func TestReaderMidFrameEOF(t *testing.T) {
	enc := AppendFrame(nil, testFrame(TypePose, bytes.Repeat([]byte{1}, 64)))
	for _, cut := range []int{1, headerLen - 1, headerLen, headerLen + 2, len(enc) - 1} {
		r := NewReader(bytes.NewReader(enc[:cut]))
		if _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// --- message round trips ---------------------------------------------------

func TestHelloRoundTrip(t *testing.T) {
	for _, in := range []Hello{
		{Proto: Version, App: "sponza", Seed: -7, IMURateHz: 500, CamRateHz: 15},
		{Proto: Version, App: "sponza", Seed: 3, IMURateHz: 500, CamRateHz: 15,
			ResumeToken: 0xfeed_beef_cafe, LastSeq: 1 << 40},
	} {
		out, err := DecodeHello(AppendHello(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v err %v", out, err)
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	for _, in := range []Welcome{
		{Proto: Version, Session: 1 << 50},
		{Proto: Version, Session: 9, ResumeToken: 0xabcdef, Resumed: true,
			LastAckSeq: 4096, PoseEpoch: 3},
	} {
		out, err := DecodeWelcome(AppendWelcome(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v err %v", out, err)
		}
	}
}

func TestWelcomeBadResumedFlag(t *testing.T) {
	// a resumed flag other than 0/1 must be rejected, not truncated
	p := binary.AppendUvarint(nil, uint64(Version))
	p = binary.AppendUvarint(p, 1) // session
	p = binary.AppendUvarint(p, 2) // token
	p = binary.AppendUvarint(p, 7) // bad resumed flag
	p = binary.AppendUvarint(p, 0) // last ack
	p = binary.AppendUvarint(p, 0) // epoch
	if _, err := DecodeWelcome(p); err == nil {
		t.Fatal("resumed flag 7 accepted")
	}
}

func TestIMURoundTrip(t *testing.T) {
	in := sensors.IMUSample{
		T:     1.25,
		Gyro:  mathx.Vec3{X: 0.1, Y: -0.2, Z: math.Pi},
		Accel: mathx.Vec3{X: -9.81, Y: 1e-12, Z: 3},
	}
	p := AppendIMU(nil, in)
	if len(p) != 56 {
		t.Fatalf("IMU payload = %d bytes, want 56", len(p))
	}
	out, err := DecodeIMU(p)
	if err != nil || out != in {
		t.Fatalf("got %+v err %v", out, err)
	}
}

func TestCameraRoundTrip(t *testing.T) {
	in := sensors.CameraFrame{Seq: 42, T: 2.5}
	for i := 0; i < 100; i++ {
		in.Features = append(in.Features, sensors.FeatureObs{ID: i * 3, U: float64(i) + 0.5, V: 480 - float64(i)})
	}
	out, err := DecodeCamera(AppendCamera(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.T != in.T || len(out.Features) != len(in.Features) {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i := range in.Features {
		if out.Features[i] != in.Features[i] {
			t.Fatalf("feature %d: %+v vs %+v", i, out.Features[i], in.Features[i])
		}
	}
}

// DecodeCameraInto decodes what DecodeCamera does, reusing the frame's
// feature array: a smaller frame after a larger one decodes without
// allocating and leaves nothing of the larger one behind.
func TestDecodeCameraIntoReuses(t *testing.T) {
	big := sensors.CameraFrame{Seq: 1, T: 0.5}
	for i := 0; i < 40; i++ {
		big.Features = append(big.Features, sensors.FeatureObs{ID: i, U: float64(i), V: -float64(i)})
	}
	small := sensors.CameraFrame{Seq: 2, T: 0.6, Features: big.Features[5:9]}
	pb, ps := AppendCamera(nil, big), AppendCamera(nil, small)
	var f sensors.CameraFrame
	for _, p := range [][]byte{pb, ps} {
		want, werr := DecodeCamera(p)
		if err := DecodeCameraInto(&f, p); err != nil || werr != nil {
			t.Fatalf("decode: %v / %v", err, werr)
		}
		if f.Seq != want.Seq || f.T != want.T || len(f.Features) != len(want.Features) {
			t.Fatalf("into %+v, fresh %+v", f, want)
		}
		for i := range want.Features {
			if f.Features[i] != want.Features[i] {
				t.Fatalf("feature %d: into %+v, fresh %+v", i, f.Features[i], want.Features[i])
			}
		}
	}
	if err := DecodeCameraInto(&f, ps[:len(ps)-3]); err == nil {
		t.Fatal("a truncated camera payload decoded")
	}
	testutil.MustZeroAllocs(t, "DecodeCameraInto", func() { _ = DecodeCameraInto(&f, ps) })
}

func TestCameraHostileCount(t *testing.T) {
	// a feature count far beyond the payload's actual room must error
	// without allocating
	p := AppendCamera(nil, sensors.CameraFrame{Seq: 1, T: 1})
	p = p[:len(p)-1]                            // drop the real (zero) count
	p = append(p, 0xff, 0xff, 0xff, 0xff, 0x7f) // claim ~34G features
	if _, err := DecodeCamera(p); err == nil {
		t.Fatal("hostile feature count decoded")
	}
}

func TestPoseRoundTrip(t *testing.T) {
	in := Pose{T: 3.5, Pose: mathx.Pose{
		Pos: mathx.Vec3{X: 1, Y: 2, Z: 3},
		Rot: mathx.Quat{W: 0.5, X: 0.5, Y: 0.5, Z: 0.5},
	}}
	out, err := DecodePose(AppendPose(nil, in))
	if err != nil || out != in {
		t.Fatalf("got %+v err %v", out, err)
	}
}

func TestReprojFrameRoundTrip(t *testing.T) {
	in := ReprojFrame{Seq: 9, T: 1.1, DisplayT: 1.108, W: 2560, H: 1440, Data: []byte{1, 2, 3, 4}}
	out, err := DecodeReprojFrame(AppendReprojFrame(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.T != in.T || out.DisplayT != in.DisplayT ||
		out.W != in.W || out.H != in.H || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("got %+v", out)
	}
}

func TestQoERoundTrip(t *testing.T) {
	in := QoE{Session: 5, MTP: telemetry.MTPSample{T: 1, IMUAge: 0.002, Reproj: 0.001, Swap: 0.004}}
	out, err := DecodeQoE(AppendQoE(nil, in))
	if err != nil || out != in {
		t.Fatalf("got %+v err %v", out, err)
	}
}

func TestPingByeRoundTrip(t *testing.T) {
	pin := Ping{Seq: 77, T: 0.25}
	pout, err := DecodePing(AppendPing(nil, pin))
	if err != nil || pout != pin {
		t.Fatalf("ping: %+v err %v", pout, err)
	}
	bin := Bye{Reason: "server full"}
	bout, err := DecodeBye(AppendBye(nil, bin))
	if err != nil || bout != bin {
		t.Fatalf("bye: %+v err %v", bout, err)
	}
	if bout.Retryable() {
		t.Fatal("bye without retry hint reported retryable")
	}
	rin := Bye{Reason: "fleet full", RetryAfterMs: 250}
	rout, err := DecodeBye(AppendBye(nil, rin))
	if err != nil || rout != rin || !rout.Retryable() {
		t.Fatalf("retryable bye: %+v err %v", rout, err)
	}
}

// A reconnect hint reaches the Bye clamped, never wrapped: a negative
// duration is a final close, not a ~49.7-day wait.
func TestRetryAfterMsClamps(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want uint32
	}{
		{-time.Second, 0},
		{-time.Millisecond, 0},
		{math.MinInt64, 0},
		{0, 0},
		{999 * time.Microsecond, 0},
		{time.Millisecond, 1},
		{250 * time.Millisecond, 250},
		{time.Duration(math.MaxUint32) * time.Millisecond, math.MaxUint32},
		{time.Duration(math.MaxUint32+1) * time.Millisecond, math.MaxUint32},
		{math.MaxInt64, math.MaxUint32},
	} {
		if got := RetryAfterMs(c.d); got != c.want {
			t.Errorf("RetryAfterMs(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	cases := map[string][]byte{
		"hello":   append(AppendHello(nil, Hello{Proto: 1}), 0),
		"welcome": append(AppendWelcome(nil, Welcome{}), 0),
		"imu":     append(AppendIMU(nil, sensors.IMUSample{}), 0),
		"camera":  append(AppendCamera(nil, sensors.CameraFrame{}), 0),
		"pose":    append(AppendPose(nil, Pose{}), 0),
		"reproj":  append(AppendReprojFrame(nil, ReprojFrame{}), 0),
		"qoe":     append(AppendQoE(nil, QoE{}), 0),
		"ping":    append(AppendPing(nil, Ping{}), 0),
		"bye":     append(AppendBye(nil, Bye{}), 0),
	}
	decoders := map[string]func([]byte) error{
		"hello":   func(p []byte) error { _, err := DecodeHello(p); return err },
		"welcome": func(p []byte) error { _, err := DecodeWelcome(p); return err },
		"imu":     func(p []byte) error { _, err := DecodeIMU(p); return err },
		"camera":  func(p []byte) error { _, err := DecodeCamera(p); return err },
		"pose":    func(p []byte) error { _, err := DecodePose(p); return err },
		"reproj":  func(p []byte) error { _, err := DecodeReprojFrame(p); return err },
		"qoe":     func(p []byte) error { _, err := DecodeQoE(p); return err },
		"ping":    func(p []byte) error { _, err := DecodePing(p); return err },
		"bye":     func(p []byte) error { _, err := DecodeBye(p); return err },
	}
	for name, p := range cases {
		if err := decoders[name](p); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

func TestShortPayloadsRejected(t *testing.T) {
	full := AppendIMU(nil, sensors.IMUSample{T: 1})
	for i := 0; i < len(full); i++ {
		if _, err := DecodeIMU(full[:i]); err == nil {
			t.Fatalf("imu prefix %d accepted", i)
		}
	}
}

func TestFrameTraceRefStreamRoundTrip(t *testing.T) {
	// The stitch layer partitions span IDs by node (client 0, replica
	// N<<40, gateway 1<<62), so the header must carry the full 64-bit
	// range bit-exactly — including the zero (invalid) ref that marks
	// an uninstrumented frame.
	refs := []telemetry.SpanRef{
		{},
		{Trace: 1, Span: 1},
		{Trace: 5 << 40, Span: 5<<40 + 7},
		{Trace: 1 << 62, Span: 1<<62 + 3},
		{Trace: ^telemetry.TraceID(0), Span: ^telemetry.SpanID(0)},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ref := range refs {
		if err := w.WriteFrame(Frame{Type: TypePose, Trace: ref, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for i, want := range refs {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Trace != want {
			t.Fatalf("frame %d: trace ref %+v round-tripped as %+v", i, want, got.Trace)
		}
		if got.Trace.Valid() != want.Valid() {
			t.Fatalf("frame %d: validity changed across the wire", i)
		}
	}
}

// Frames returns the number of frames successfully decoded.
func (r *Reader) Frames() uint64 { return r.frames }

// Frames returns the number of frames written.
func (w *Writer) Frames() uint64 { return w.frames }
