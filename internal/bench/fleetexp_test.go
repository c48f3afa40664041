package bench

import (
	"bytes"
	"io"
	"testing"
)

func TestFleetExperimentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet bench in -short mode")
	}
	a, err := FleetExperiment(io.Discard, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetExperiment(io.Discard, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("same seed produced different fleet reports")
	}

	c, err := FleetExperiment(io.Discard, 120, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, a), encode(t, c)) {
		t.Fatal("different seeds produced identical fleet reports")
	}
}

func TestFleetExperimentSurvivability(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet bench in -short mode")
	}
	rep, err := FleetExperiment(io.Discard, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range rep.Check() {
		t.Error(err)
	}
}

func TestFleetExperimentRejectsOverCapacity(t *testing.T) {
	if _, err := FleetExperiment(io.Discard, fleetCapacity*(fleetReplicas-1)+1, 1); err == nil {
		t.Fatal("over-capacity cell accepted: zero-loss would be impossible")
	}
}
