package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// FuzzWireDecode feeds arbitrary bytes through the slice decoder and — on
// a successful parse — every payload decoder. The invariant is totality:
// corrupted, truncated, hostile input must yield an error, never a panic
// or an unbounded allocation. A successfully decoded frame must re-encode
// to the identical bytes (the codec is canonical). Seeds covering the
// interesting shapes (valid frame, truncation, CRC corruption, version
// skew) are checked in under testdata/fuzz/FuzzWireDecode.
func FuzzWireDecode(f *testing.F) {
	valid := AppendFrame(nil, Frame{
		Type:    TypeIMU,
		Trace:   telemetry.SpanRef{Trace: 3, Span: 9},
		Payload: AppendIMU(nil, sensors.IMUSample{T: 0.002}),
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	crc := append([]byte(nil), valid...)
	crc[len(crc)-1] ^= 0xff
	f.Add(crc) // corrupted CRC
	skew := append([]byte(nil), valid...)
	skew[2] = Version + 3
	f.Add(skew) // version skew
	f.Add(AppendFrame(nil, Frame{Type: TypeCamera,
		Payload: AppendCamera(nil, sensors.CameraFrame{Seq: 1, T: 0.1,
			Features: []sensors.FeatureObs{{ID: 1, U: 2, V: 3}}})}))
	f.Add([]byte{magic0, magic1})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// canonical re-encode (a non-minimal length varint decodes fine
		// but re-encodes shorter; only equal-length frames must match)
		re := AppendFrame(nil, fr)
		if len(re) == n && !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs from wire bytes")
		}
		// payload decoders must be total too
		switch fr.Type {
		case TypeHello:
			_, _ = DecodeHello(fr.Payload)
		case TypeWelcome:
			_, _ = DecodeWelcome(fr.Payload)
		case TypeIMU:
			_, _ = DecodeIMU(fr.Payload)
		case TypeCamera:
			_, _ = DecodeCamera(fr.Payload)
		case TypePose:
			_, _ = DecodePose(fr.Payload)
		case TypeFrame:
			_, _ = DecodeReprojFrame(fr.Payload)
		case TypeQoE:
			_, _ = DecodeQoE(fr.Payload)
		case TypePing, TypePong:
			_, _ = DecodePing(fr.Payload)
		case TypeBye:
			_, _ = DecodeBye(fr.Payload)
		}
	})
}

// readAll drains r: every frame, copied out before the next read, and the
// error that ended the stream.
func readAll(r *Reader) ([]Frame, error) {
	var out []Frame
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return out, err
		}
		f.Payload = append([]byte{}, f.Payload...)
		out = append(out, f)
	}
}

// errClass names the kind of error that ended a stream.
func errClass(err error) string {
	for _, e := range []error{errMagic, errVersion, errTooLarge, errCRC} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	switch err {
	case io.EOF, io.ErrUnexpectedEOF:
		return err.Error()
	}
	return fmt.Sprintf("unexpected error %v", err)
}

// FuzzReaderStream feeds a byte stream through a Reader that sees it in
// whole buffers — where most frames arrive whole and are parsed in place
// — and through one fed a byte per Read, where every frame takes the
// scratch path. Both must yield identical frames, count the same bytes
// and end on the same class of error: the in-place parse validates
// exactly what the scratch path does, in the same order.
func FuzzReaderStream(f *testing.F) {
	burst, ends := uplinkBursts(1)
	f.Add(burst[:ends[0]])   // an uplink burst
	f.Add(burst[:ends[0]-5]) // its tail torn mid-frame
	bad := append([]byte(nil), burst[:ends[0]]...)
	at := 0
	for i := 0; i < FlushWindow/2; i++ {
		_, n, _ := Decode(bad[at:])
		at += n
	}
	bad[at+headerLen+2] ^= 0x40 // a payload byte mid-stream: that frame's CRC fails
	f.Add(bad)
	f.Add(burst) // ends on a camera frame larger than readBufSize

	f.Fuzz(func(t *testing.T, data []byte) {
		whole := NewReader(bytes.NewReader(data))
		defer whole.Release()
		byByte := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		defer byByte.Release()
		got, gotErr := readAll(whole)
		want, wantErr := readAll(byByte)
		if len(got) != len(want) {
			t.Fatalf("whole buffers: %d frames, one byte per read: %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].Trace != want[i].Trace || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("frame %d: whole buffers %+v, one byte per read %+v", i, got[i], want[i])
			}
		}
		if g, w := errClass(gotErr), errClass(wantErr); g != w {
			t.Fatalf("stream ends on %q with whole buffers, %q one byte per read", g, w)
		}
		if whole.Frames() != byByte.Frames() || whole.Bytes() != byByte.Bytes() {
			t.Fatalf("counted %d frames/%d bytes with whole buffers, %d/%d one byte per read",
				whole.Frames(), whole.Bytes(), byByte.Frames(), byByte.Bytes())
		}
	})
}
