package binlog

import (
	"bytes"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// TestRecordRawByteIdentical: a capture built from raw pass-through
// frames must be byte-identical to one built from the decoded frames —
// the zero-copy relay's tap records exactly what the old tap did.
func TestRecordRawByteIdentical(t *testing.T) {
	frames := []wire.Frame{
		{Type: wire.TypeHello, Payload: wire.AppendHello(nil, wire.Hello{Proto: wire.Version, App: "raw"})},
		{Type: wire.TypeIMU, Trace: telemetry.SpanRef{Trace: 3, Span: 4}, Payload: []byte{1, 2, 3}},
		{Type: wire.TypePose, Payload: []byte{9, 9}},
		{Type: wire.TypeBye, Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})},
	}
	meta := Meta{Label: "raw-tap-test", CreatedUnixNano: 1}

	var dec bytes.Buffer
	wd, err := NewWriter(&dec, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	wd.SetClock(func() float64 { return 0.5 })
	for i, f := range frames {
		dir := DirUp
		if i%2 == 1 {
			dir = DirDown
		}
		if err := wd.Record(dir, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := wd.Close(); err != nil {
		t.Fatal(err)
	}

	var raw bytes.Buffer
	wr, err := NewWriter(&raw, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	wr.SetClock(func() float64 { return 0.5 })
	for i, f := range frames {
		dir := DirUp
		if i%2 == 1 {
			dir = DirDown
		}
		r := wire.Raw{Type: f.Type, Trace: f.Trace, Bytes: wire.AppendFrame(nil, f)}
		if err := wr.RecordRaw(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(dec.Bytes(), raw.Bytes()) {
		t.Fatal("raw-tap capture differs from decoded-tap capture")
	}

	// and the raw capture decodes back to the original frames
	l, err := DecodeLog(raw.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != len(frames) {
		t.Fatalf("decoded %d records, want %d", len(l.Records), len(frames))
	}
	for i, rec := range l.Records {
		if rec.Frame.Type != frames[i].Type || !bytes.Equal(rec.Frame.Payload, frames[i].Payload) {
			t.Fatalf("record %d does not round-trip", i)
		}
	}
}
