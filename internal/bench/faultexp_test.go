package bench

import (
	"strings"
	"testing"
)

// TestFaultScenarioRendersAndIsDeterministic runs the fault-scenario
// experiment twice and checks the rendered report is complete and
// byte-identical across runs (seeded schedule + deterministic scheduler).
func TestFaultScenarioRendersAndIsDeterministic(t *testing.T) {
	var a, b strings.Builder
	resA, err := faultScenario(&a, "vio-stall", 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultScenario(&b, "vio-stall", 6, 11); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("fault-scenario report not deterministic across runs")
	}
	for _, want := range []string{
		"Schedule fingerprint:", "vio_stall", "Fault windows",
		"Restarts of vio: 1", "Dead-reckoning uncertainty peak",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("report missing %q:\n%s", want, a.String())
		}
	}
	if resA.Faults == nil || len(resA.Faults.Windows) == 0 {
		t.Fatal("experiment returned no fault windows")
	}
}

// TestFaultScenarioRejectsUnknownName checks the error path surfaces.
func TestFaultScenarioRejectsUnknownName(t *testing.T) {
	var sb strings.Builder
	if _, err := faultScenario(&sb, "no-such-scenario", 5, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
