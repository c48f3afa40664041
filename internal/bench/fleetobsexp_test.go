package bench

import (
	"bytes"
	"io"
	"testing"
)

func TestFleetObsExperimentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleetobs bench in -short mode")
	}
	a, err := FleetObsExperiment(io.Discard, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetObsExperiment(io.Discard, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("same seed produced different fleetobs reports")
	}
	c, err := FleetObsExperiment(io.Discard, 30, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, a), encode(t, c)) {
		t.Fatal("different seeds produced identical fleetobs reports")
	}
}

func TestFleetObsPlacementAndAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("fleetobs bench in -short mode")
	}
	rep, err := FleetObsExperiment(io.Discard, 30, 42)
	if err != nil {
		t.Fatal(err)
	}

	for _, err := range rep.Check() {
		t.Error(err)
	}
	// exactly the static and live objectives, nothing stray
	if len(rep.SLO) != 2 {
		t.Fatalf("slo statuses = %+v", rep.SLO)
	}
}
