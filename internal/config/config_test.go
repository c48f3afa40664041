package config

import (
	"math"
	"testing"
)

func TestDefaultMatchesTableIII(t *testing.T) {
	p := Default()
	if p.CameraRateHz != 15 || p.IMURateHz != 500 || p.DisplayRateHz != 120 ||
		p.AudioRateHz != 48 || p.AudioBlockSize != 1024 {
		t.Errorf("default params deviate from Table III: %+v", p)
	}
	if p.CameraWidth != 640 || p.CameraHeight != 480 {
		t.Error("camera not VGA")
	}
	if p.DisplayWidth != 2560 || p.DisplayHeight != 1440 {
		t.Error("display not 2K")
	}
}

func TestDeadlines(t *testing.T) {
	cam, imu, disp, aud := Default().Deadlines()
	if math.Abs(cam-66.6667) > 0.01 {
		t.Errorf("camera deadline %v", cam)
	}
	if imu != 2 {
		t.Errorf("imu deadline %v", imu)
	}
	if math.Abs(disp-8.3333) > 0.01 {
		t.Errorf("display deadline %v", disp)
	}
	if math.Abs(aud-20.833) > 0.01 {
		t.Errorf("audio deadline %v", aud)
	}
}

func TestRequirementsComplete(t *testing.T) {
	reqs := Requirements()
	if len(reqs) != 7 {
		t.Fatalf("Table I rows = %d, want 7", len(reqs))
	}
	for _, r := range reqs {
		if r.Metric == "" || r.IdealVR == "" || r.IdealAR == "" {
			t.Errorf("incomplete row %+v", r)
		}
	}
	if TargetMTPVRMs != 20 || TargetMTPARMs != 5 {
		t.Error("MTP targets deviate from Table I")
	}
}

func TestComponentsCoverAllPipelines(t *testing.T) {
	comps := Components()
	pipelines := map[string]int{}
	detailed := 0
	for _, c := range comps {
		pipelines[c.Pipeline]++
		if c.Detailed {
			detailed++
		}
	}
	for _, p := range []string{"Perception", "Visual", "Audio"} {
		if pipelines[p] == 0 {
			t.Errorf("pipeline %s has no components", p)
		}
	}
	if detailed < 10 {
		t.Errorf("only %d detailed components", detailed)
	}
}

// Table II lists what this reproduction builds: one algorithm per
// component, and a second row only for VIO, whose fast profile
// (vio.FastParams) is the one alternative the code carries.
func TestComponentsListOnlyBuiltAlgorithms(t *testing.T) {
	rows := map[string][]string{}
	for _, c := range Components() {
		rows[c.Component] = append(rows[c.Component], c.Algorithm)
	}
	for comp, algs := range rows {
		want := 1
		if comp == "VIO" {
			want = 2
		}
		if len(algs) != want {
			t.Errorf("%s lists %d algorithms %q, want %d", comp, len(algs), algs, want)
		}
	}
}
