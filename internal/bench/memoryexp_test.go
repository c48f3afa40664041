package bench

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestMemoryExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("memory experiment runs the integrated system twice")
	}
	var buf bytes.Buffer
	rep := MemoryExperiment(&buf, 8, 1)
	if len(rep.Paths) < 6 {
		t.Fatalf("paths = %d, want >= 6", len(rep.Paths))
	}
	gated := 0
	for _, p := range rep.Paths {
		if p.Gated {
			gated++
		}
		if p.AllocsPerFrame < 0 || p.BytesPerFrame < 0 {
			t.Errorf("%s: negative allocation rate %v / %v", p.Name, p.AllocsPerFrame, p.BytesPerFrame)
		}
	}
	if gated < 5 {
		t.Fatalf("gated paths = %d, want >= 5", gated)
	}
	if rep.EndToEnd.Frames <= 0 {
		t.Fatal("end-to-end loop did not run")
	}
	if rep.EndToEnd.UnpooledBytes <= rep.EndToEnd.BytesPerFrame {
		t.Fatalf("unpooled loop allocates %.0f bytes/frame, pooled %.0f — pooling not effective",
			rep.EndToEnd.UnpooledBytes, rep.EndToEnd.BytesPerFrame)
	}
	if rep.MTP.DefaultP99Ms <= 0 || rep.MTP.TunedP99Ms <= 0 {
		t.Fatalf("MTP p99s not measured: %+v", rep.MTP)
	}

	out := filepath.Join(t.TempDir(), "memory.json")
	if err := writeReport(out, rep); err != nil {
		t.Fatal(err)
	}
	var round MemoryReport
	if err := readReport(out, &round, true); err != nil {
		t.Fatalf("BENCH_memory.json does not round-trip: %v", err)
	}
	if len(round.Paths) != len(rep.Paths) {
		t.Fatalf("file has %d paths, report %d", len(round.Paths), len(rep.Paths))
	}
	if !bytes.Contains(buf.Bytes(), []byte("end-to-end loop")) {
		t.Fatal("rendered output missing the end-to-end summary")
	}
}
