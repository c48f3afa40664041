package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestQoSSimDeterminism re-runs the heaviest adaptive cell and requires
// the full variant row — MTP bits, decision fingerprint, final split —
// to be byte-identical.
func TestQoSSimDeterminism(t *testing.T) {
	a, ax, err := runQoSSim(24, 7, true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, bx, err := runQoSSim(24, 7, true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("adaptive sim drifted across re-runs:\n%s\n%s", ja, jb)
	}
	if ax.p99Bits != bx.p99Bits {
		t.Fatalf("p99 bits drifted: %016x vs %016x", ax.p99Bits, bx.p99Bits)
	}
	if a.Violations != 0 {
		t.Fatalf("controller reported %d invariant violations", a.Violations)
	}
}

// TestQoSExperimentGates runs the full experiment and asserts the
// qosReport.Check contract on the in-memory report.
func TestQoSExperimentGates(t *testing.T) {
	rep, err := qosExperiment(io.Discard, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range rep.Check() {
		t.Error(err)
	}
}
