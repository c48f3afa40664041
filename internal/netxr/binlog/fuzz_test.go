package binlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds builds the in-code seed inputs (the checked-in corpus under
// testdata/fuzz/FuzzBinlogDecode mirrors these shapes).
func fuzzSeeds() [][]byte {
	var seeds [][]byte

	// a clean multi-record log
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Meta{Session: 1, App: "fuzz", Seed: 3,
		IMURateHz: 500, CamRateHz: 15, CreatedUnixNano: 1, Label: "seed"}, nil)
	for i, f := range testFrames(5) {
		_ = w.RecordAt(DirUp, float64(i)*0.001, f)
	}
	_ = w.Close()
	clean := append([]byte(nil), buf.Bytes()...)
	seeds = append(seeds, clean)

	// header only (empty log)
	seeds = append(seeds, appendHeader(nil, Meta{App: "empty", CreatedUnixNano: 1}))
	// torn tail
	seeds = append(seeds, clean[:len(clean)-7])
	// corrupt final record
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-5] ^= 0xa5
	seeds = append(seeds, corrupt)
	// bad magic, short, empty
	seeds = append(seeds, []byte("XRBLX"), []byte("XR"), nil)
	// a foreign file under a sibling magic ("XRBI") fed to the log decoder
	seeds = append(seeds, []byte("XRBI\x01\x16\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"+
		"\x02\x00\x00\x00\x00\x00\x00G\x97\x1e\xaa"))
	return seeds
}

// FuzzBinlogDecode hammers the capture decoder with arbitrary bytes:
// it must never panic and must classify every input as (a) a clean log,
// (b) a log with a recoverable torn tail, or (c) a typed error. Silent
// misparse is checked by re-encoding whatever was decoded and decoding
// it again: the records must survive the round trip unchanged. (The
// comparison is semantic, not byte-exact — binary.Uvarint tolerates
// non-minimal encodings, so a hostile log need not be canonical.)
func FuzzBinlogDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLog(data, nil)
		if err != nil {
			return // typed rejection is fine; panics are what fuzzing hunts
		}
		// no silent misparse: what was decoded re-encodes into a log
		// that decodes to the same thing
		enc := appendHeader(nil, l.Meta)
		for _, r := range l.Records {
			enc = appendRecord(enc, r)
		}
		l2, err := DecodeLog(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded log rejected: %v", err)
		}
		if l2.Meta != l.Meta || l2.Torn != 0 || len(l2.Records) != len(l.Records) {
			t.Fatalf("round trip drifted: %d records torn=%d", len(l2.Records), l2.Torn)
		}
		for i := range l.Records {
			a, b := l.Records[i], l2.Records[i]
			if a.Seq != b.Seq || a.Wall != b.Wall || a.Dir != b.Dir ||
				a.Frame.Type != b.Frame.Type || a.Frame.Trace != b.Frame.Trace ||
				!bytes.Equal(a.Frame.Payload, b.Frame.Payload) {
				t.Fatalf("record %d drifted in round trip", i)
			}
		}
	})
}

// TestFuzzCorpusChecked keeps the checked-in seed corpus under
// testdata/fuzz/FuzzBinlogDecode in sync with fuzzSeeds(): run with
// ILLIXR_UPDATE_CORPUS=1 to regenerate, otherwise it asserts every
// seed is present (so `go test -fuzz` starts from real captures, torn
// tails, and corrupt records even on a fresh checkout).
func TestFuzzCorpusChecked(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBinlogDecode")
	seeds := fuzzSeeds()
	if os.Getenv("ILLIXR_UPDATE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
		return
	}
	for i := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("corpus seed missing (regenerate with ILLIXR_UPDATE_CORPUS=1): %v", err)
		}
	}
}
