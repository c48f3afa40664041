// Message payload codecs. Every message has an Append encoder (allocation
// free onto a caller buffer) and a Decode function that validates length
// and returns typed errors — decoders are total functions, never panics.
//
// Encoding conventions: float64 as IEEE-754 bits little-endian (8 bytes),
// counts and small non-negative integers as unsigned varints, signed
// integers as zigzag varints, strings and byte blobs as uvarint length +
// bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// dec is a bounds-checked payload cursor.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", errShortPay, what, d.off)
	}
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("bytes")
		return nil
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

// finish errors on unconsumed trailing bytes so version-skewed peers that
// append fields are detected rather than silently half-parsed.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d bytes", errTrailing, len(d.b)-d.off)
	}
	return nil
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendVec3(dst []byte, v mathx.Vec3) []byte {
	dst = appendF64(dst, v.X)
	dst = appendF64(dst, v.Y)
	return appendF64(dst, v.Z)
}

func (d *dec) vec3() mathx.Vec3 {
	return mathx.Vec3{X: d.f64(), Y: d.f64(), Z: d.f64()}
}

func appendPose(dst []byte, p mathx.Pose) []byte {
	dst = appendVec3(dst, p.Pos)
	dst = appendF64(dst, p.Rot.W)
	dst = appendF64(dst, p.Rot.X)
	dst = appendF64(dst, p.Rot.Y)
	return appendF64(dst, p.Rot.Z)
}

func (d *dec) pose() mathx.Pose {
	return mathx.Pose{
		Pos: d.vec3(),
		Rot: mathx.Quat{W: d.f64(), X: d.f64(), Y: d.f64(), Z: d.f64()},
	}
}

// Hello is the client's opening message: protocol version, a label for
// the session, the deterministic seed driving the client's sensors, and
// the nominal stream rates (the server sizes queues and watchdogs off
// them). ResumeToken is zero for a fresh session; on reconnect the client
// presents the token from its last Welcome plus the highest downlink
// sequence it observed, and the fleet re-places the session instead of
// starting a new one (DESIGN.md §11).
type Hello struct {
	Proto       uint32
	App         string
	Seed        int64
	IMURateHz   float64
	CamRateHz   float64
	ResumeToken uint64 // 0 = fresh session; else the token from a prior Welcome
	LastSeq     uint64 // highest downlink seq the client saw before disconnecting
}

// AppendHello encodes h onto dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Proto))
	dst = binary.AppendUvarint(dst, uint64(len(h.App)))
	dst = append(dst, h.App...)
	dst = binary.AppendVarint(dst, h.Seed)
	dst = appendF64(dst, h.IMURateHz)
	dst = appendF64(dst, h.CamRateHz)
	dst = binary.AppendUvarint(dst, h.ResumeToken)
	return binary.AppendUvarint(dst, h.LastSeq)
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := &dec{b: p}
	h := Hello{
		Proto: uint32(d.uvarint()),
		App:   string(d.bytes()),
		Seed:  d.varint(),
	}
	h.IMURateHz = d.f64()
	h.CamRateHz = d.f64()
	h.ResumeToken = d.uvarint()
	h.LastSeq = d.uvarint()
	return h, d.finish()
}

// Welcome is the server's handshake reply: the protocol version it
// speaks, the session id it assigned, and the resume state. ResumeToken
// is what the client must present to reconnect; Resumed reports whether
// this handshake restored a prior session; LastAckSeq is the last uplink
// sequence the fleet acknowledged before the disconnect (the client may
// skip replaying anything at or below it); PoseEpoch increments on every
// placement, so a client can tell that downstream pose lineage restarted.
type Welcome struct {
	Proto       uint32
	Session     uint64
	ResumeToken uint64
	Resumed     bool
	LastAckSeq  uint64
	PoseEpoch   uint64
}

// AppendWelcome encodes w onto dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = binary.AppendUvarint(dst, uint64(w.Proto))
	dst = binary.AppendUvarint(dst, w.Session)
	dst = binary.AppendUvarint(dst, w.ResumeToken)
	var resumed uint64
	if w.Resumed {
		resumed = 1
	}
	dst = binary.AppendUvarint(dst, resumed)
	dst = binary.AppendUvarint(dst, w.LastAckSeq)
	return binary.AppendUvarint(dst, w.PoseEpoch)
}

// DecodeWelcome parses a Welcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	d := &dec{b: p}
	w := Welcome{Proto: uint32(d.uvarint()), Session: d.uvarint()}
	w.ResumeToken = d.uvarint()
	resumed := d.uvarint()
	if d.err == nil && resumed > 1 {
		return w, fmt.Errorf("%w: resumed flag %d", errShortPay, resumed)
	}
	w.Resumed = resumed == 1
	w.LastAckSeq = d.uvarint()
	w.PoseEpoch = d.uvarint()
	return w, d.finish()
}

// AppendIMU encodes one inertial sample (56 bytes).
func AppendIMU(dst []byte, s sensors.IMUSample) []byte {
	dst = appendF64(dst, s.T)
	dst = appendVec3(dst, s.Gyro)
	return appendVec3(dst, s.Accel)
}

// DecodeIMU parses an IMU payload.
func DecodeIMU(p []byte) (sensors.IMUSample, error) {
	d := &dec{b: p}
	s := sensors.IMUSample{T: d.f64(), Gyro: d.vec3(), Accel: d.vec3()}
	return s, d.finish()
}

// AppendCamera encodes one stereo-rectified camera frame: sequence
// number, timestamp, and the tracked feature observations (the geometric
// channel the VIO back end consumes).
func AppendCamera(dst []byte, f sensors.CameraFrame) []byte {
	dst = binary.AppendVarint(dst, int64(f.Seq))
	dst = appendF64(dst, f.T)
	dst = binary.AppendUvarint(dst, uint64(len(f.Features)))
	for _, ob := range f.Features {
		dst = binary.AppendVarint(dst, int64(ob.ID))
		dst = appendF64(dst, ob.U)
		dst = appendF64(dst, ob.V)
	}
	return dst
}

// maxCameraFeatures bounds the decoded feature count so a corrupted
// varint cannot drive a huge allocation (a real frame tracks <= a few
// hundred).
const maxCameraFeatures = 1 << 16

// DecodeCamera parses a Camera payload into a fresh frame.
func DecodeCamera(p []byte) (sensors.CameraFrame, error) {
	var f sensors.CameraFrame
	err := DecodeCameraInto(&f, p)
	return f, err
}

// DecodeCameraInto parses a Camera payload into f, reusing the backing
// array of f.Features when it is large enough: a consumer that is done
// with the previous frame decodes the next one without allocating. On an
// error f holds what was parsed before it.
func DecodeCameraInto(f *sensors.CameraFrame, p []byte) error {
	d := &dec{b: p}
	*f = sensors.CameraFrame{Seq: int(d.varint()), T: d.f64(), Features: f.Features[:0]}
	n := d.uvarint()
	if d.err == nil && n > maxCameraFeatures {
		return fmt.Errorf("%w: %d features", errTooLarge, n)
	}
	// cap the preallocation by what the payload could actually hold
	// (>= 10 bytes per feature) so a lying count cannot balloon memory
	if d.err == nil {
		if room := uint64(len(p)-d.off) / 10; n > room+1 {
			return fmt.Errorf("%w: feature count %d exceeds payload", errShortPay, n)
		}
		if f.Features == nil || uint64(cap(f.Features)) < n {
			f.Features = make([]sensors.FeatureObs, 0, n)
		}
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		f.Features = append(f.Features, sensors.FeatureObs{
			ID: int(d.varint()), U: d.f64(), V: d.f64(),
		})
	}
	return d.finish()
}

// Pose is a timestamped pose estimate flowing downstream: T is the
// sensor time the estimate is valid for (the MTP anchor), Pose the body
// pose in the world frame.
type Pose struct {
	T    float64
	Pose mathx.Pose
}

// AppendPose encodes a pose message (64 bytes).
func AppendPose(dst []byte, p Pose) []byte {
	dst = appendF64(dst, p.T)
	return appendPose(dst, p.Pose)
}

// DecodePose parses a Pose payload.
func DecodePose(p []byte) (Pose, error) {
	d := &dec{b: p}
	out := Pose{T: d.f64(), Pose: d.pose()}
	return out, d.finish()
}

// ReprojFrame is a reprojected display frame flowing downstream: the
// pose it was warped with, the display timestamp it targets, and an
// opaque payload (encoded image tiles; the synthetic pipeline ships a
// downsampled luma summary).
type ReprojFrame struct {
	Seq      uint64
	T        float64 // source pose time
	DisplayT float64 // targeted vsync
	W, H     uint32
	Data     []byte
}

// AppendReprojFrame encodes a reprojected-frame message.
func AppendReprojFrame(dst []byte, f ReprojFrame) []byte {
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = appendF64(dst, f.T)
	dst = appendF64(dst, f.DisplayT)
	dst = binary.AppendUvarint(dst, uint64(f.W))
	dst = binary.AppendUvarint(dst, uint64(f.H))
	dst = binary.AppendUvarint(dst, uint64(len(f.Data)))
	return append(dst, f.Data...)
}

// DecodeReprojFrame parses a ReprojFrame payload. Data aliases p.
func DecodeReprojFrame(p []byte) (ReprojFrame, error) {
	d := &dec{b: p}
	f := ReprojFrame{
		Seq:      d.uvarint(),
		T:        d.f64(),
		DisplayT: d.f64(),
		W:        uint32(d.uvarint()),
		H:        uint32(d.uvarint()),
		Data:     d.bytes(),
	}
	return f, d.finish()
}

// QoE is a quality-of-experience sample the client reports upstream so
// the server can attribute per-session MTP: the standard MTP breakdown
// plus the session id assigned at handshake.
type QoE struct {
	Session uint64
	MTP     telemetry.MTPSample
}

// AppendQoE encodes a QoE sample.
func AppendQoE(dst []byte, q QoE) []byte {
	dst = binary.AppendUvarint(dst, q.Session)
	dst = appendF64(dst, q.MTP.T)
	dst = appendF64(dst, q.MTP.IMUAge)
	dst = appendF64(dst, q.MTP.Reproj)
	return appendF64(dst, q.MTP.Swap)
}

// DecodeQoE parses a QoE payload.
func DecodeQoE(p []byte) (QoE, error) {
	d := &dec{b: p}
	q := QoE{Session: d.uvarint()}
	q.MTP.T = d.f64()
	q.MTP.IMUAge = d.f64()
	q.MTP.Reproj = d.f64()
	q.MTP.Swap = d.f64()
	return q, d.finish()
}

// Ping carries a sequence number and the sender's session-time stamp;
// the peer echoes both in a Pong, giving a wire-level RTT probe.
type Ping struct {
	Seq uint64
	T   float64
}

// AppendPing encodes a ping (or pong — same payload shape).
func AppendPing(dst []byte, p Ping) []byte {
	dst = binary.AppendUvarint(dst, p.Seq)
	return appendF64(dst, p.T)
}

// DecodePing parses a Ping/Pong payload.
func DecodePing(p []byte) (Ping, error) {
	d := &dec{b: p}
	out := Ping{Seq: d.uvarint(), T: d.f64()}
	return out, d.finish()
}

// Bye announces a graceful close with a human-readable reason; after
// sending it a peer flushes and closes. RetryAfterMs is the admission
// control hint: non-zero means the refusal (or drain) is transient and
// the client should reconnect — with its resume token — after at least
// that many milliseconds. Zero means the close is final.
type Bye struct {
	Reason       string
	RetryAfterMs uint32
}

// Retryable reports whether the peer invited a reconnect.
func (b Bye) Retryable() bool { return b.RetryAfterMs > 0 }

// RetryAfterMs converts a reconnect hint to a Bye's RetryAfterMs: whole
// milliseconds clamped to [0, MaxUint32]. A negative hint becomes 0 (the
// close is final) instead of wrapping to ~49.7 days; an hour-scale one
// saturates instead of wrapping to a short one.
func RetryAfterMs(d time.Duration) uint32 {
	return uint32(min(max(d.Milliseconds(), 0), math.MaxUint32))
}

// AppendBye encodes a Bye.
func AppendBye(dst []byte, b Bye) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Reason)))
	dst = append(dst, b.Reason...)
	return binary.AppendUvarint(dst, uint64(b.RetryAfterMs))
}

// DecodeBye parses a Bye payload.
func DecodeBye(p []byte) (Bye, error) {
	d := &dec{b: p}
	b := Bye{Reason: string(d.bytes())}
	retry := d.uvarint()
	if d.err == nil && retry > math.MaxUint32 {
		return b, fmt.Errorf("%w: retry_after %d ms", errTooLarge, retry)
	}
	b.RetryAfterMs = uint32(retry)
	return b, d.finish()
}
