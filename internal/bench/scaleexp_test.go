package bench

import "testing"

// TestScaleSweepDeterminism: the admission script is a pure function of
// the seed — the soak's wall_* section is exempt, but the fingerprint and
// the decision count must come out the same twice, at a seed the golden
// below does not pin.
func TestScaleSweepDeterminism(t *testing.T) {
	run := func() [2]uint64 {
		fp, decisions, err := runScaleAdmissionScript(7)
		if err != nil {
			t.Fatal(err)
		}
		return [2]uint64{fp, decisions}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("admission script not deterministic: %#x vs %#x", a, b)
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
