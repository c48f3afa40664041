package power

import (
	"math"
	"testing"
	"testing/quick"

	"illixr/internal/perfmodel"
)

func TestBreakdownTotalAndShares(t *testing.T) {
	b := Breakdown{CPU: 10, GPU: 20, DDR: 5, SoC: 10, Sys: 5}
	if b.Total() != 50 {
		t.Errorf("total %v", b.Total())
	}
	cpu, gpu, ddr, soc, sys := b.Shares()
	if math.Abs(cpu+gpu+ddr+soc+sys-1) > 1e-12 {
		t.Error("shares do not sum to 1")
	}
	if gpu != 0.4 {
		t.Errorf("gpu share %v", gpu)
	}
	zero := Breakdown{}
	if c, _, _, _, _ := zero.Shares(); c != 0 {
		t.Error("zero breakdown shares")
	}
}

func TestEstimateMonotoneInUtilization(t *testing.T) {
	for _, p := range perfmodel.Platforms {
		idle := Estimate(p, Utilization{})
		busy := Estimate(p, Utilization{CPU: 1, GPU: 1})
		if busy.Total() <= idle.Total() {
			t.Errorf("%s: busy %v <= idle %v", p.Name, busy.Total(), idle.Total())
		}
		if idle.SoC <= 0 || idle.Sys <= 0 {
			t.Errorf("%s: zero static rails", p.Name)
		}
	}
}

func TestEstimateClampsUtilization(t *testing.T) {
	p := perfmodel.Desktop
	over := Estimate(p, Utilization{CPU: 5, GPU: 5})
	max := Estimate(p, Utilization{CPU: 1, GPU: 1})
	if over.Total() != max.Total() {
		t.Error("utilization not clamped")
	}
	under := Estimate(p, Utilization{CPU: -1, GPU: -1})
	idle := Estimate(p, Utilization{})
	if under.Total() != idle.Total() {
		t.Error("negative utilization not clamped")
	}
}

func TestPlatformPowerOrdering(t *testing.T) {
	u := Utilization{CPU: 0.3, GPU: 0.7}
	d := Estimate(perfmodel.Desktop, u).Total()
	hp := Estimate(perfmodel.JetsonHP, u).Total()
	lp := Estimate(perfmodel.JetsonLP, u).Total()
	if !(d > 10*hp && hp > lp) {
		t.Errorf("ordering: desktop %v, hp %v, lp %v", d, hp, lp)
	}
}

func TestJetsonLPSoCSysDominates(t *testing.T) {
	// §IV-A2: SoC and Sys consume more than 50% on Jetson-LP.
	b := Estimate(perfmodel.JetsonLP, Utilization{CPU: 0.25, GPU: 0.9})
	_, _, _, soc, sys := b.Shares()
	if soc+sys < 0.5 {
		t.Errorf("SoC+Sys = %.2f", soc+sys)
	}
}

func TestDesktopGPUDominates(t *testing.T) {
	b := Estimate(perfmodel.Desktop, Utilization{CPU: 0.3, GPU: 0.6})
	if b.GPU <= b.CPU {
		t.Error("desktop GPU power should dominate")
	}
}

func TestUnknownPlatform(t *testing.T) {
	b := Estimate(perfmodel.Platform{Name: "nope"}, Utilization{CPU: 1})
	if b.Total() != 0 {
		t.Error("unknown platform should be zero")
	}
}

func TestEstimateNonNegativeProperty(t *testing.T) {
	f := func(cpu, gpu float64) bool {
		if math.IsNaN(cpu) || math.IsNaN(gpu) || math.IsInf(cpu, 0) || math.IsInf(gpu, 0) {
			return true
		}
		for _, p := range perfmodel.Platforms {
			b := Estimate(p, Utilization{CPU: cpu, GPU: gpu})
			if b.CPU < 0 || b.GPU < 0 || b.DDR < 0 || b.SoC < 0 || b.Sys < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
