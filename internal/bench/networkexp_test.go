package bench

import (
	"bytes"
	"io"
	"testing"
)

func TestNetworkExperimentDeterministic(t *testing.T) {
	r1, err := networkExperiment(io.Discard, 8, 42)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := networkExperiment(io.Discard, 8, 42)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	b1 := encode(t, r1)
	b2 := encode(t, r2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different reports")
	}

	r3, err := networkExperiment(io.Discard, 8, 43)
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if bytes.Equal(b1, encode(t, r3)) {
		t.Fatal("different seeds produced identical reports — the seed is not reaching the links")
	}
}

func TestNetworkExperimentShape(t *testing.T) {
	rep, err := networkExperiment(io.Discard, 8, 7)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, err := range rep.Check() {
		t.Error(err)
	}
	if len(rep.Cells) != 6 { // 5 profiles + wifi+flaky
		t.Fatalf("cells = %d, want 6", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if len(cell.Sessions) != 8 {
			t.Fatalf("%s: sessions = %d, want 8", cell.Profile.Name, len(cell.Sessions))
		}
		for _, s := range cell.Sessions {
			if s.PosesDisplayed+s.StaleDrops != s.PosesDelivered {
				t.Fatalf("%s session %d: displayed %d + stale %d != delivered %d",
					cell.Profile.Name, s.Session, s.PosesDisplayed, s.StaleDrops, s.PosesDelivered)
			}
		}
	}
}
