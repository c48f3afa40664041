// Package power implements the rail-level power model behind Fig 6: given
// per-resource utilizations from the scheduler, it estimates CPU, GPU,
// DDR, SoC and Sys power for each platform. Rail constants are calibrated
// to the paper's observations: the desktop draws hundreds of watts with
// the GPU dominating; the Jetsons draw ~7–17 W with *all* rails
// substantial; and SoC+Sys exceeds 50 % of total power on Jetson-LP
// (§IV-A2).
package power

import "illixr/internal/perfmodel"

// Utilization is the busy fraction of each shared resource over a run.
type Utilization struct {
	CPU float64 // mean busy fraction across cores, in [0,1]
	GPU float64 // busy fraction of the GPU, in [0,1]
}

// Breakdown is the per-rail power in watts (the five rails of §III-E).
type Breakdown struct {
	CPU float64
	GPU float64
	DDR float64 // DRAM
	SoC float64 // on-chip microcontrollers, excludes CPU and GPU
	Sys float64 // display, storage, I/O, sensors
}

// Total sums the rails.
func (b Breakdown) Total() float64 { return b.CPU + b.GPU + b.DDR + b.SoC + b.Sys }

// Shares returns each rail as a fraction of the total.
func (b Breakdown) Shares() (cpu, gpu, ddr, soc, sys float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0, 0, 0
	}
	return b.CPU / t, b.GPU / t, b.DDR / t, b.SoC / t, b.Sys / t
}

// rail is a static + dynamic linear power model.
type rail struct {
	static  float64
	dynamic float64
}

func (r rail) at(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return r.static + r.dynamic*u
}

type platformRails struct {
	cpu, gpu, ddr rail
	soc, sys      float64
}

var railTable = map[string]platformRails{
	perfmodel.Desktop.Name: {
		cpu: rail{static: 14, dynamic: 58},
		gpu: rail{static: 38, dynamic: 185},
		ddr: rail{static: 4, dynamic: 9},
		soc: 12, // chipset, VRM losses
		sys: 28, // display, storage, I/O
	},
	perfmodel.JetsonHP.Name: {
		cpu: rail{static: 0.7, dynamic: 3.4},
		gpu: rail{static: 0.5, dynamic: 4.6},
		ddr: rail{static: 0.4, dynamic: 1.9},
		soc: 2.3,
		sys: 3.3, // display + sensor I/O
	},
	perfmodel.JetsonLP.Name: {
		cpu: rail{static: 0.35, dynamic: 1.25},
		gpu: rail{static: 0.25, dynamic: 1.7},
		ddr: rail{static: 0.25, dynamic: 0.95},
		soc: 1.9,
		sys: 2.7,
	},
}

// Estimate computes the power breakdown of a platform at the given
// utilization. Unknown platforms return the zero Breakdown.
func Estimate(p perfmodel.Platform, u Utilization) Breakdown {
	r, ok := railTable[p.Name]
	if !ok {
		return Breakdown{}
	}
	// memory utilization follows compute activity
	memU := 0.45*u.CPU + 0.55*u.GPU
	return Breakdown{
		CPU: r.cpu.at(u.CPU),
		GPU: r.gpu.at(u.GPU),
		DDR: r.ddr.at(memU),
		SoC: r.soc,
		Sys: r.sys,
	}
}
