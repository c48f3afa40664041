package binlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// testMeta is the metadata header used across the package tests.
func testMeta() Meta {
	return Meta{
		Session: 7, App: "sponza", Seed: 42, IMURateHz: 500, CamRateHz: 15,
		ResumeToken: 0xdeadbeef, CreatedUnixNano: 1700000000000000000, Label: "test",
	}
}

// testFrames builds a deterministic mixed frame sequence.
func testFrames(n int) []wire.Frame {
	out := make([]wire.Frame, 0, n)
	for i := 0; i < n; i++ {
		var f wire.Frame
		switch i % 3 {
		case 0:
			f = wire.Frame{Type: wire.TypeIMU,
				Trace:   telemetry.SpanRef{Trace: telemetry.TraceID(i), Span: telemetry.SpanID(i * 2)},
				Payload: wire.AppendIMU(nil, sensors.IMUSample{T: float64(i) * 0.002})}
		case 1:
			f = wire.Frame{Type: wire.TypePose,
				Payload: wire.AppendPose(nil, wire.Pose{T: float64(i) * 0.002})}
		default:
			f = wire.Frame{Type: wire.TypeQoE,
				Payload: wire.AppendQoE(nil, wire.QoE{Session: 7})}
		}
		out = append(out, f)
	}
	return out
}

// record encodes a full in-memory log with alternating directions and
// returns the raw bytes plus each record's offset, read from
// Writer.Bytes before the record was appended.
func record(t *testing.T, frames []wire.Frame) ([]byte, []uint64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(), nil)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	offs := make([]uint64, 0, len(frames))
	for i, f := range frames {
		dir := DirUp
		if i%2 == 1 {
			dir = DirDown
		}
		offs = append(offs, w.Bytes())
		if err := w.RecordAt(dir, float64(i)*0.01, f); err != nil {
			t.Fatalf("RecordAt %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Count() != uint64(len(frames)) || w.Bytes() != uint64(buf.Len()) {
		t.Fatalf("writer totals %d/%d, want %d/%d", w.Count(), w.Bytes(), len(frames), buf.Len())
	}
	return buf.Bytes(), offs
}

func TestRoundTrip(t *testing.T) {
	frames := testFrames(30)
	raw, _ := record(t, frames)

	l, err := DecodeLog(raw, nil)
	if err != nil {
		t.Fatalf("DecodeLog: %v", err)
	}
	if l.Meta != testMeta() {
		t.Fatalf("meta round-trip: got %+v", l.Meta)
	}
	if l.Torn != 0 || len(l.Records) != len(frames) {
		t.Fatalf("got %d records, torn %d; want %d, 0", len(l.Records), l.Torn, len(frames))
	}
	for i, r := range l.Records {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
		if r.Wall != float64(i)*0.01 {
			t.Fatalf("record %d: wall %v", i, r.Wall)
		}
		wantDir := DirUp
		if i%2 == 1 {
			wantDir = DirDown
		}
		if r.Dir != wantDir {
			t.Fatalf("record %d: dir %v", i, r.Dir)
		}
		if r.Frame.Type != frames[i].Type || r.Frame.Trace != frames[i].Trace ||
			!bytes.Equal(r.Frame.Payload, frames[i].Payload) {
			t.Fatalf("record %d: frame mismatch", i)
		}
	}
}

func TestWallReceiptOrderIsFileOrder(t *testing.T) {
	// seqs are writer-assigned under the lock: file order == seq order
	// == receipt order, regardless of which goroutine carried the frame.
	raw, _ := record(t, testFrames(10))
	l, err := DecodeLog(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(l.Records); i++ {
		if l.Records[i].Seq != l.Records[i-1].Seq+1 {
			t.Fatalf("seq gap at %d", i)
		}
		if l.Records[i].Wall < l.Records[i-1].Wall {
			t.Fatalf("wall regressed at %d", i)
		}
	}
}

func TestTornTruncatedFinalRecordSkipped(t *testing.T) {
	frames := testFrames(12)
	raw, _ := record(t, frames)
	reg := telemetry.NewRegistry()

	// cut into the final record at several depths: always recoverable
	for _, cut := range []int{1, 4, 10, 20} {
		l, err := DecodeLog(raw[:len(raw)-cut], reg)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if l.Torn != 1 || len(l.Records) != len(frames)-1 {
			t.Fatalf("cut %d: torn %d records %d, want 1 and %d", cut, l.Torn, len(l.Records), len(frames)-1)
		}
		if l.TornBytes == 0 {
			t.Fatalf("cut %d: torn bytes not accounted", cut)
		}
	}
	if got := reg.Counter(telemetry.MetricName("binlog", "torn_total")).Value(); got != 4 {
		t.Fatalf("illixr_binlog_torn_total = %d, want 4", got)
	}
}

func TestTornCorruptFinalRecordSkipped(t *testing.T) {
	frames := testFrames(6)
	raw, _ := record(t, frames)
	reg := telemetry.NewRegistry()

	// flip a byte inside the final record's body: CRC detects, tail skipped
	bad := append([]byte(nil), raw...)
	bad[len(bad)-6] ^= 0xff
	l, err := DecodeLog(bad, reg)
	if err != nil {
		t.Fatalf("DecodeLog: %v", err)
	}
	if l.Torn != 1 || len(l.Records) != len(frames)-1 {
		t.Fatalf("torn %d records %d, want 1 and %d", l.Torn, len(l.Records), len(frames)-1)
	}
	if got := reg.Counter(telemetry.MetricName("binlog", "torn_total")).Value(); got != 1 {
		t.Fatalf("illixr_binlog_torn_total = %d, want 1", got)
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	raw, offs := record(t, testFrames(12))
	// corrupt record 3's body: data follows, so this is NOT a torn tail
	bad := append([]byte(nil), raw...)
	bad[offs[3]+8] ^= 0x55
	_, err := DecodeLog(bad, nil)
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestHeaderErrors(t *testing.T) {
	raw, _ := record(t, testFrames(3))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, errHeader},
		{"short", func(b []byte) []byte { return b[:3] }, errHeader},
		{"magic", func(b []byte) []byte { b[0] = 'Y'; return b }, errMagic},
		{"version", func(b []byte) []byte { b[4] = formatVersion + 9; return b }, errFormatVersion},
		{"crc", func(b []byte) []byte { b[6] ^= 0x80; return b }, errHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), raw...))
			if _, err := DecodeLog(b, nil); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestWriterClosedRefusesRecords(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	err = w.Record(DirUp, wire.Frame{Type: wire.TypePing, Payload: wire.AppendPing(nil, wire.Ping{})})
	if !errors.Is(err, errClosed) {
		t.Fatalf("record after close: %v, want ErrClosed", err)
	}
}

func TestMetaDefaultsCreatedStamp(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{App: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Meta().CreatedUnixNano == 0 {
		t.Fatal("CreatedUnixNano not defaulted")
	}
	_ = w.Close()
}

// TestFileRoundTrip: a Created capture closes to exactly one file — the
// log is the whole capture — and decoding it gives back what was
// recorded, per direction and per message type.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run"+Suffix)
	w, err := Create(path, testMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(20)
	want := map[wire.Type]uint64{}
	for i, f := range frames {
		d := DirUp
		if i%4 == 3 {
			d = DirDown
		}
		if err := w.RecordAt(d, float64(i), f); err != nil {
			t.Fatal(err)
		}
		want[f.Type]++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("capture left %d files (%v), want 1", len(ents), err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(raw)) != w.Bytes() {
		t.Fatalf("file holds %d bytes, writer produced %d", len(raw), w.Bytes())
	}
	l, err := DecodeLog(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta != testMeta() || l.Torn != 0 || uint64(len(l.Records)) != w.Count() {
		t.Fatalf("read back %d records (torn %d), writer counted %d", len(l.Records), l.Torn, w.Count())
	}
	down := 0
	for _, r := range l.Records {
		if r.Dir == DirDown {
			down++
		}
	}
	if down != len(frames)/4 {
		t.Fatalf("%d down records, want %d", down, len(frames)/4)
	}
	got := l.CountByType()
	if len(got) != len(want) {
		t.Fatalf("type buckets %v, want %v", got, want)
	}
	for typ, n := range want {
		if got[typ] != n {
			t.Fatalf("count[%v] = %d, want %d", typ, got[typ], n)
		}
	}
}

// TestFileTornTail: a crash mid-append leaves a file whose final record
// is torn. Decoding skips it, and the clean byte count derived from the
// log (file size minus TornBytes) ends exactly where that record began.
func TestFileTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash"+Suffix)
	w, err := Create(path, testMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var lastOff uint64
	for i, f := range testFrames(10) {
		lastOff = w.Bytes()
		if err := w.RecordAt(DirUp, float64(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(w.Bytes())-5); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := DecodeLog(torn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Torn != 1 || len(l.Records) != 9 {
		t.Fatalf("torn=%d records=%d, want 1/9", l.Torn, len(l.Records))
	}
	if clean := uint64(len(torn) - l.TornBytes); clean != lastOff {
		t.Fatalf("clean bytes %d, want %d (the torn record's offset)", clean, lastOff)
	}
}

// Suffix is the conventional file extension.
const Suffix = ".binlog"

// Bytes returns the number of log bytes produced so far (header included).
func (w *Writer) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
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
