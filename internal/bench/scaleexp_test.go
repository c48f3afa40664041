package bench

import (
	"encoding/json"
	"testing"
)

// TestScaleSweepDeterminism: the sweep cell and the admission script
// are pure functions of the seed — the wall_* sections are exempt, but
// the DES and the fingerprint must encode byte-identically.
func TestScaleSweepDeterminism(t *testing.T) {
	run := func() []byte {
		cell, err := runScaleCell(32, 42)
		if err != nil {
			t.Fatal(err)
		}
		fp, _, err := runScaleAdmissionScript(42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Cell ScaleCell
			Fp   uint64
		}{cell, fp})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("scale sweep not deterministic:\n%s\n%s", a, b)
	}
}

// TestScaleFingerprintEqual: the 1602-decision admission script must
// fingerprint equal to the value the sharded coordinator produced for it
// at 1 and 16 shards (the checked-in BENCH_scale.json value from before
// the shard tables were deleted) — no coordinator change may alter a
// decision at kilo-session scale without moving it.
func TestScaleFingerprintEqual(t *testing.T) {
	fp, decisions, err := runScaleAdmissionScript(42)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0x16742a60b11c759a || decisions != 1602 {
		t.Fatalf("admission script: fingerprint %#x over %d decisions, want 0x16742a60b11c759a over 1602",
			fp, decisions)
	}
}

// TestScaleCellShape: the largest cell must place every session and
// lose none, and the pooled MTP distribution must be populated.
func TestScaleCellShape(t *testing.T) {
	cell, err := runScaleCell(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Admitted != 64 || cell.Lost != 0 {
		t.Fatalf("cell admitted %d lost %d, want 64/0", cell.Admitted, cell.Lost)
	}
	if cell.MTP.N == 0 || cell.MTP.P99Ms <= 0 {
		t.Fatalf("cell MTP empty: %+v", cell.MTP)
	}
	if cell.MaxReplicaLoad <= 0 || cell.MaxReplicaLoad > scaleCapacity {
		t.Fatalf("max replica load %d outside (0, %d]", cell.MaxReplicaLoad, scaleCapacity)
	}
}
