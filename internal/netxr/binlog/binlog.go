// Package binlog is the binary session record/replay substrate
// (DESIGN.md §13): a length-prefixed, CRC-framed, versioned capture
// format for every netxr wire frame crossing a tap point — the
// session layer, the bridge client, or the gateway relay. A recording
// turns any interesting run (fault storm, resume storm, loop-closure
// spike) into a permanent scenario: replayed at 1× it is a bit-exact
// regression input (internal/netxr/replay), replayed at N× fan-out it
// is a load generator stamping fresh session identities onto one
// captured stream.
//
// File layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       4     magic "XRBL"
//	4       1     format version (FormatVersion)
//	5       1-5   metadata length, unsigned varint
//	...     m     metadata payload (Meta, wire-codec conventions)
//	...     4     CRC-32 (IEEE) over every preceding header byte
//	---- then zero or more records ----
//	...     1-5   record body length, unsigned varint, <= MaxRecord
//	...     n     record body
//	...     4     CRC-32 (IEEE) over the body (not the length prefix)
//
// Record body:
//
//	offset  size  field
//	0       1     direction (DirUp = client→server, DirDown = server→client)
//	1       1-10  sequence number, unsigned varint (writer-assigned, dense)
//	...     8     wall-receipt time, float64 seconds since capture start
//	...     rest  one raw wire frame (wire.AppendFrame bytes, CRC included)
//
// The wrapped wire frame keeps its own header CRC and causal-trace ref,
// so a recording is decodable with the PR 4 codecs alone and replay
// preserves trace lineage. The outer record CRC exists for torn-write
// recovery: a truncated or corrupted FINAL record (a crash mid-append)
// is detected, counted into illixr_binlog_torn_total, and skipped —
// never a panic, never a silent misparse. Corruption that is not at the
// tail is a typed error: the log cannot be trusted past it.
//
// Ownership rules (who appends, who closes): every binlog has exactly
// one *Writer and the Writer owns the single append path — all tap
// points (session reader goroutine, session writer goroutine, gateway
// relay goroutines) call Record on the same Writer, which assigns the
// sequence number and wall-receipt stamp under one lock, so frames
// serialize into the file in receipt order no matter which goroutine
// carried them. The component that opened the capture (the Capture /
// Record hook owner) closes it after the last tap point has quiesced;
// Close flushes the log and closes the file.
package binlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// Magic opens every binlog file ("XRBL").
var Magic = [4]byte{'X', 'R', 'B', 'L'}

// FormatVersion is the capture format this build reads and writes. A
// decoder receiving any other version returns ErrFormatVersion instead
// of misparsing the stream.
const FormatVersion = 1

// MaxRecord bounds one record body: a wire frame (payload <= MaxPayload
// plus framing) and the record envelope. A corrupted length prefix can
// therefore never drive an unbounded allocation.
const MaxRecord = wire.MaxPayload + 1<<12

// Suffix is the conventional file extension.
const Suffix = ".binlog"

// Dir is the direction a captured frame travelled at the tap point.
type Dir uint8

const (
	// DirUp is client→server traffic (Hello, IMU, Camera, QoE, Ping, Bye).
	DirUp Dir = 0
	// DirDown is server→client traffic (Welcome, Pose, Frame, Pong, Bye).
	DirDown Dir = 1
)

func (d Dir) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// Decode errors. ErrTorn is never returned to callers — torn tails are
// skipped and counted — but it names the condition in accounting.
var (
	ErrMagic         = errors.New("binlog: bad magic")
	ErrFormatVersion = errors.New("binlog: format version mismatch")
	ErrHeader        = errors.New("binlog: corrupt header")
	ErrCorrupt       = errors.New("binlog: corrupt record")
	ErrTooLarge      = errors.New("binlog: record exceeds MaxRecord")
	ErrClosed        = errors.New("binlog: writer closed")
)

// Meta is the session metadata header of a capture: who was recorded,
// under which seed and rates, and where the tap sat. It rides at the
// front of the log.
type Meta struct {
	// Session is the transport session id at the tap (0 if unknown at
	// capture-open time, e.g. a client that has not completed handshake).
	Session uint64
	// App is the application label from the Hello.
	App string
	// Seed is the deterministic dataset seed from the Hello.
	Seed int64
	// IMURateHz / CamRateHz are the nominal stream rates from the Hello.
	IMURateHz float64
	CamRateHz float64
	// ResumeToken is the token the recorded session presented (0 = fresh).
	ResumeToken uint64
	// CreatedUnixNano stamps capture start (informational; replay
	// fingerprints never hash it).
	CreatedUnixNano int64
	// Label names the tap point ("session", "client", "gateway", ...).
	Label string
}

// appendMeta encodes m with the wire-codec conventions.
func appendMeta(dst []byte, m Meta) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.AppendUvarint(dst, uint64(len(m.App)))
	dst = append(dst, m.App...)
	dst = binary.AppendVarint(dst, m.Seed)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.IMURateHz))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CamRateHz))
	dst = binary.AppendUvarint(dst, m.ResumeToken)
	dst = binary.AppendVarint(dst, m.CreatedUnixNano)
	dst = binary.AppendUvarint(dst, uint64(len(m.Label)))
	return append(dst, m.Label...)
}

// metaDec is a bounds-checked cursor over a metadata payload.
type metaDec struct {
	b   []byte
	off int
	err error
}

func (d *metaDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrHeader, what, d.off)
	}
}

func (d *metaDec) uvarint() uint64 {
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

func (d *metaDec) varint() int64 {
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

func (d *metaDec) f64() float64 {
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

func (d *metaDec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// decodeMeta parses a metadata payload; trailing bytes are an error so
// version-skewed files are refused, not half-parsed.
func decodeMeta(p []byte) (Meta, error) {
	d := &metaDec{b: p}
	m := Meta{
		Session: d.uvarint(),
		App:     d.str(),
		Seed:    d.varint(),
	}
	m.IMURateHz = d.f64()
	m.CamRateHz = d.f64()
	m.ResumeToken = d.uvarint()
	m.CreatedUnixNano = d.varint()
	m.Label = d.str()
	if d.err != nil {
		return m, d.err
	}
	if d.off != len(p) {
		return m, fmt.Errorf("%w: %d trailing metadata bytes", ErrHeader, len(p)-d.off)
	}
	return m, nil
}

// appendHeader encodes the file header (magic, version, metadata, CRC).
func appendHeader(dst []byte, m Meta) []byte {
	start := len(dst)
	dst = append(dst, Magic[:]...)
	dst = append(dst, FormatVersion)
	meta := appendMeta(nil, m)
	dst = binary.AppendUvarint(dst, uint64(len(meta)))
	dst = append(dst, meta...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// decodeHeader parses the file header from the front of b, returning
// the metadata and the number of bytes consumed.
func decodeHeader(b []byte) (Meta, int, error) {
	var m Meta
	if len(b) < len(Magic)+1 {
		return m, 0, ErrHeader
	}
	if b[0] != Magic[0] || b[1] != Magic[1] || b[2] != Magic[2] || b[3] != Magic[3] {
		return m, 0, ErrMagic
	}
	if b[4] != FormatVersion {
		return m, 0, fmt.Errorf("%w: got %d want %d", ErrFormatVersion, b[4], FormatVersion)
	}
	n, vlen := binary.Uvarint(b[5:])
	if vlen <= 0 || n > MaxRecord {
		return m, 0, ErrHeader
	}
	total := 5 + vlen + int(n) + 4
	if len(b) < total {
		return m, 0, ErrHeader
	}
	body := b[:total-4]
	want := binary.LittleEndian.Uint32(b[total-4 : total])
	if crc32.ChecksumIEEE(body) != want {
		return m, 0, fmt.Errorf("%w: header CRC mismatch", ErrHeader)
	}
	m, err := decodeMeta(b[5+vlen : total-4])
	if err != nil {
		return m, 0, err
	}
	return m, total, nil
}

// Record is one captured frame: the direction it travelled, the dense
// writer-assigned sequence number, the wall-receipt stamp (seconds
// since capture start), and the decoded wire frame (trace ref intact;
// Frame.Payload aliases the log buffer).
type Record struct {
	Dir   Dir
	Seq   uint64
	Wall  float64
	Frame wire.Frame
}

// appendRecord encodes one record (length prefix, body, CRC) onto dst.
func appendRecord(dst []byte, r Record) []byte {
	// body first, into the tail of dst past a reserved spot? Simpler:
	// encode the body after the varint by building it in place — the
	// length is not known until the frame is encoded, so encode the body
	// into scratch space at the end and splice. To stay allocation-free
	// the caller reuses dst; the double pass below only moves bytes.
	bodyStart := len(dst)
	dst = append(dst, byte(r.Dir))
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Wall))
	dst = wire.AppendFrame(dst, r.Frame)
	return spliceRecord(dst, bodyStart)
}

// appendRecordRaw is appendRecord for an already-encoded frame: the raw
// bytes go into the body verbatim, so a pass-through tap (the gateway's
// zero-copy relay) records exactly the bytes it forwards — byte-identical
// to appendRecord of the equivalent decoded frame.
func appendRecordRaw(dst []byte, dir Dir, seq uint64, wall float64, frame []byte) []byte {
	bodyStart := len(dst)
	dst = append(dst, byte(dir))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(wall))
	dst = append(dst, frame...)
	return spliceRecord(dst, bodyStart)
}

// spliceRecord prefixes the body at dst[bodyStart:] with its varint
// length and appends the body CRC.
func spliceRecord(dst []byte, bodyStart int) []byte {
	bodyLen := len(dst) - bodyStart
	var pfx [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(pfx[:], uint64(bodyLen))
	dst = append(dst, pfx[:pn]...)                             // grow
	copy(dst[bodyStart+pn:], dst[bodyStart:bodyStart+bodyLen]) // shift body right
	copy(dst[bodyStart:], pfx[:pn])                            // prefix in place
	sum := crc32.ChecksumIEEE(dst[bodyStart+pn : bodyStart+pn+bodyLen])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// decodeRecord parses one record from the front of b. It returns the
// record and bytes consumed. Errors: ErrTooLarge for a hostile length,
// io-style truncation is reported via errTruncated (the caller decides
// torn-tail vs corrupt), ErrCorrupt for CRC or body-shape failures.
var errTruncated = errors.New("binlog: truncated record")

func decodeRecord(b []byte) (Record, int, error) {
	var r Record
	n, vlen := binary.Uvarint(b)
	if vlen <= 0 {
		return r, 0, errTruncated
	}
	if n > MaxRecord {
		return r, 0, ErrTooLarge
	}
	total := vlen + int(n) + 4
	if len(b) < total {
		return r, 0, errTruncated
	}
	body := b[vlen : vlen+int(n)]
	want := binary.LittleEndian.Uint32(b[vlen+int(n) : total])
	if crc32.ChecksumIEEE(body) != want {
		return r, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if len(body) < 1+1+8 {
		return r, 0, fmt.Errorf("%w: body too short", ErrCorrupt)
	}
	if body[0] > uint8(DirDown) {
		return r, 0, fmt.Errorf("%w: direction %d", ErrCorrupt, body[0])
	}
	r.Dir = Dir(body[0])
	seq, sn := binary.Uvarint(body[1:])
	if sn <= 0 {
		return r, 0, fmt.Errorf("%w: bad seq varint", ErrCorrupt)
	}
	r.Seq = seq
	off := 1 + sn
	if off+8 > len(body) {
		return r, 0, fmt.Errorf("%w: missing wall stamp", ErrCorrupt)
	}
	r.Wall = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
	off += 8
	f, consumed, err := wire.Decode(body[off:])
	if err != nil {
		return r, 0, fmt.Errorf("%w: inner frame: %v", ErrCorrupt, err)
	}
	if off+consumed != len(body) {
		return r, 0, fmt.Errorf("%w: %d trailing body bytes", ErrCorrupt, len(body)-off-consumed)
	}
	r.Frame = f
	return r, total, nil
}

// metrics bundles the package instruments (nil-registry safe).
type metrics struct {
	records *telemetry.Counter
	bytes   *telemetry.Counter
	torn    *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) metrics {
	n := func(name string) string { return telemetry.MetricName("binlog", name) }
	return metrics{
		records: reg.Counter(n("records_total")),
		bytes:   reg.Counter(n("bytes_total")),
		torn:    reg.Counter(n("torn_total")),
	}
}
