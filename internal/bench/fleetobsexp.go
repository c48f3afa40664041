package bench

import (
	"fmt"
	"io"
	"math"

	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/netsim"
	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/slo"
	"illixr/internal/telemetry/stitch"
)

// The fleet observability experiment (-exp fleetobs) proves the
// telemetry loop of DESIGN.md §12 end to end, in virtual time:
//
//   - Placement cells: the same session ramp placed twice, once by a
//     coordinator flying blind (static: its own admission counts only)
//     and once fed by the real fleet.Scraper over synthetic replica
//     /metrics snapshots (live). In the balanced cell the two must tie;
//     in the skewed cell — hidden background load on replica 0 that
//     only the scrape can see — live placement must deliver a strictly
//     better MTP p99. The scrape→fold→probe→Pick path is the production
//     code; only the fetch is synthetic.
//
//   - Stitched-trace cell: three span collectors (client, gateway,
//     replica) with disjoint ID bases record one frame pipeline across
//     simulated links; stitch.Stitch merges the dumps and
//     stitch.Attribute's per-hop critical path must telescope to the
//     end-to-end MTPSample within ObsAttrBoundMs for every frame.
//
//   - SLO cell: both placement cells' MTP streams feed the real
//     slo.Engine; the report carries the resulting burn rates, and the
//     flight recorder's event counts close the audit trail.
//
// FleetObsReport.Check gates the report: live <= static + eps when balanced,
// live strictly better when skewed, attribution error under 1 ms,
// three nodes stitched, finite burn rates, events recorded.
const (
	obsReplicas   = 3
	obsCapacity   = 64
	obsVirtualSec = 8.0
	obsIMUHz      = 250.0
	obsVsyncHz    = 120.0
	// obsRampSec spreads session arrivals so scrape cadence matters.
	obsRampSec = 2.0
	// obsBaseProcMs + obsPerSessionMs*load is a replica's service time:
	// the queueing model that makes placement quality visible in MTP.
	obsBaseProcMs   = 0.3
	obsPerSessionMs = 0.25
	// obsBackgroundSessions is the hidden load on replica 0 in the skewed
	// cell: admitted outside this gateway, visible only via scraping.
	obsBackgroundSessions = 40
	// obsScrapeIntervalSec is the virtual scrape cadence during the ramp.
	obsScrapeIntervalSec = 0.25
	// obsAttrFrames sizes the stitched-trace cell.
	obsAttrFrames = 120
	// ObsAttrBoundMs is the attribution gate: per-hop segments must
	// telescope to the end-to-end MTP sample within this.
	ObsAttrBoundMs = 1.0
	// ObsBalancedEpsMs is the balanced-cell tie tolerance.
	ObsBalancedEpsMs = 0.5
	// SLO objective: per-frame MTP within obsSLOBoundMs, 5% error budget.
	obsSLOBoundMs   = 30.0
	obsSLOBudget    = 0.05
	obsSLOWindowSec = obsVirtualSec
)

// ObsPlacementVariant is one placement strategy's outcome.
type ObsPlacementVariant struct {
	Probe      string   `json:"probe"` // "static" | "live"
	PerReplica []int    `json:"placed_per_replica"`
	MTP        MTPStats `json:"mtp"`
}

// ObsPlacementCell compares static vs live placement under one load shape.
type ObsPlacementCell struct {
	Background []int               `json:"background_sessions"`
	Static     ObsPlacementVariant `json:"static"`
	Live       ObsPlacementVariant `json:"live"`
	// LiveP99AdvantageMs = static p99 - live p99 (positive: live wins).
	LiveP99AdvantageMs float64 `json:"live_p99_advantage_ms"`
}

// ObsStitchCell is the cross-node attribution result.
type ObsStitchCell struct {
	Frames int `json:"frames"`
	Nodes  int `json:"nodes"`
	Spans  int `json:"spans"`
	// MaxAttrErrMs is the worst |sum(per-hop segments) - MTPSample.Total|
	// over all frames.
	MaxAttrErrMs float64 `json:"max_attr_err_ms"`
	// MeanHopMs is the average critical-path share per stage (spans and
	// the gaps attributed to the hop downstream of them).
	MeanHopMs map[string]float64 `json:"mean_hop_ms"`
}

// ObsEventsCell summarizes the flight recorder after the skewed live run.
type ObsEventsCell struct {
	Recorded uint64            `json:"recorded"`
	ByKind   map[string]uint64 `json:"by_kind"`
}

// FleetObsReport is the BENCH_fleetobs.json document.
type FleetObsReport struct {
	Seed          int64            `json:"seed"`
	Sessions      int              `json:"sessions"`
	Replicas      int              `json:"replicas"`
	VirtualSec    float64          `json:"virtual_sec"`
	IMUHz         float64          `json:"imu_hz"`
	VsyncHz       float64          `json:"vsync_hz"`
	AttrBoundMs   float64          `json:"attr_bound_ms"`
	BalancedEpsMs float64          `json:"balanced_eps_ms"`
	Balanced      ObsPlacementCell `json:"balanced"`
	Skewed        ObsPlacementCell `json:"skewed"`
	Stitch        ObsStitchCell    `json:"stitch"`
	SLO           []slo.Status     `json:"slo"`
	Events        ObsEventsCell    `json:"events"`
	Note          string           `json:"note"`
}

const fleetObsNote = "fleet observability cells (DESIGN.md §12): placement ramp " +
	"run static (own counts) vs live (real fleet.Scraper over synthetic " +
	"replica /metrics snapshots feeding coordinator LoadProbes); skewed " +
	"cell hides background load on replica 0 that only scraping reveals. " +
	"Stitch cell merges client/gateway/replica span dumps with stitch.Stitch " +
	"and checks per-hop attribution telescopes to the end-to-end MTP sample. " +
	"All virtual-time and seed-deterministic."

// Check is the observability gate: the loop must demonstrably close —
// scraped metrics improving placement, and stitched cross-node traces
// attributing end-to-end latency correctly.
func (rep *FleetObsReport) Check() []error {
	var f failures
	// cell shape
	if rep.Replicas < 3 {
		f.addf("cell ran %d replicas, need >= 3", rep.Replicas)
	}
	for _, c := range []struct {
		name string
		ObsPlacementCell
	}{{"balanced", rep.Balanced}, {"skewed", rep.Skewed}} {
		if c.Static.MTP.N == 0 || c.Live.MTP.N == 0 {
			f.addf("%s cell has empty MTP distributions (static n=%d live n=%d)",
				c.name, c.Static.MTP.N, c.Live.MTP.N)
		}
	}
	hiddenLoad := 0
	for _, b := range rep.Skewed.Background {
		hiddenLoad += b
	}
	if hiddenLoad == 0 {
		f.addf("skewed cell has no hidden background load — nothing for the scrape to reveal")
	}

	// placement quality: balanced ties, skewed strictly better live
	bal, skew := rep.Balanced, rep.Skewed
	if d := bal.Live.MTP.P99Ms - bal.Static.MTP.P99Ms; d > rep.BalancedEpsMs {
		f.addf("balanced cell: live p99 %.2fms exceeds static %.2fms by more than eps %.2fms",
			bal.Live.MTP.P99Ms, bal.Static.MTP.P99Ms, rep.BalancedEpsMs)
	}
	if skew.Live.MTP.P99Ms >= skew.Static.MTP.P99Ms {
		f.addf("skewed cell: live p99 %.2fms not strictly better than static %.2fms",
			skew.Live.MTP.P99Ms, skew.Static.MTP.P99Ms)
	}
	if skew.Live.MTP.MeanMs >= skew.Static.MTP.MeanMs {
		f.addf("skewed cell: live mean %.2fms not strictly better than static %.2fms",
			skew.Live.MTP.MeanMs, skew.Static.MTP.MeanMs)
	}
	// live placement must have shifted sessions off the loaded replica
	for i, b := range skew.Background {
		if b == 0 || i >= len(skew.Live.PerReplica) || i >= len(skew.Static.PerReplica) {
			continue
		}
		if skew.Live.PerReplica[i] >= skew.Static.PerReplica[i] {
			f.addf("skewed cell: live placed %d on loaded replica %d, static placed %d — the probe changed nothing",
				skew.Live.PerReplica[i], i, skew.Static.PerReplica[i])
		}
	}

	// cross-node attribution: per-hop segments telescope to the sample
	if rep.Stitch.Nodes != 3 {
		f.addf("stitch cell merged %d nodes, want 3 (client, gateway, replica)", rep.Stitch.Nodes)
	}
	if rep.Stitch.Frames == 0 || rep.Stitch.Spans == 0 {
		f.addf("stitch cell is empty (%d frames, %d spans)", rep.Stitch.Frames, rep.Stitch.Spans)
	}
	if rep.AttrBoundMs <= 0 || rep.AttrBoundMs > 1.0 {
		f.addf("attr_bound_ms %.3f outside (0, 1] — the bench relaxed the contract", rep.AttrBoundMs)
	}
	if rep.Stitch.MaxAttrErrMs > rep.AttrBoundMs {
		f.addf("max attribution error %.4fms exceeds bound %.2fms",
			rep.Stitch.MaxAttrErrMs, rep.AttrBoundMs)
	}

	// SLO engine
	if len(rep.SLO) < 2 {
		f.addf("SLO snapshot has %d objectives, want >= 2 (static and live)", len(rep.SLO))
	}
	for _, st := range rep.SLO {
		if st.Good+st.Bad == 0 {
			f.addf("SLO %q observed no events", st.Name)
		}
		if math.IsNaN(st.BurnRate) || math.IsInf(st.BurnRate, 0) || st.BurnRate < 0 {
			f.addf("SLO %q burn rate %v is not a finite non-negative number", st.Name, st.BurnRate)
		}
	}

	// flight recorder: one admit per placed session
	if rep.Events.Recorded == 0 {
		f.addf("flight recorder recorded no events")
	}
	if int(rep.Events.ByKind["admit"]) != rep.Sessions {
		f.addf("flight recorder saw %d admit events for %d sessions",
			rep.Events.ByKind["admit"], rep.Sessions)
	}
	return f
}

// runObsVariant places the ramp with or without live probes and returns
// the variant row, the pooled MTP samples, and the flight recorder.
func runObsVariant(nSessions int, seed int64, background []int, live bool) (ObsPlacementVariant, []float64, *telemetry.FlightRecorder, error) {
	v := ObsPlacementVariant{Probe: "static"}
	if live {
		v.Probe = "live"
	}
	events := telemetry.NewFlightRecorder(telemetry.DefaultFlightCap)
	coord := fleet.NewCoordinator(fleet.Config{
		ReplicaCapacity: obsCapacity, TokenSeed: seed, Events: events})

	placed := make([]int, obsReplicas)
	var scraper *fleet.Scraper
	if live {
		scraper = fleet.NewScraper(coord, fleet.ScrapeConfig{
			Events: events,
			// synthetic replica /metrics: what a scrape at this instant
			// would see — our placements so far plus the background load
			// this coordinator has no other way to know about
			Fetch: func(id int, _ string) (telemetry.RegistrySnapshot, error) {
				return telemetry.RegistrySnapshot{Gauges: map[string]float64{
					fleet.ScrapeSessionsGauge: float64(background[id] + placed[id]),
					fleet.ScrapeQueueGauge:    0,
				}}, nil
			},
		})
		for i := 0; i < obsReplicas; i++ {
			scraper.AddTarget(i, fmt.Sprintf("http://replica-%d/metrics", i))
		}
	}
	for i := 0; i < obsReplicas; i++ {
		if live {
			coord.AddReplica(i, scraper.Probe(i))
		} else {
			coord.AddReplica(i, nil)
		}
	}

	starts := make([]float64, nSessions)
	replicas := make([]int, nSessions)
	lastScrape := math.Inf(-1)
	for i := 0; i < nSessions; i++ {
		t := float64(i) * obsRampSec / float64(nSessions)
		if live && t >= lastScrape+obsScrapeIntervalSec {
			scraper.ScrapeOnce(t)
			lastScrape = t
		}
		hello := wire.Hello{App: "fleetobs", Seed: seed + int64(i), IMURateHz: obsIMUHz}
		id, err := coord.Pick(t, hello)
		if err != nil {
			return v, nil, nil, fmt.Errorf("bench: place session %d: %w", i, err)
		}
		if _, err := coord.AdmitOn(t, id, uint64(i+1), hello); err != nil {
			return v, nil, nil, fmt.Errorf("bench: admit session %d: %w", i, err)
		}
		placed[id]++
		replicas[i], starts[i] = id, t
	}
	v.PerReplica = placed

	// steady-state DES: each replica's service time reflects everything
	// running there — background load included, wherever sessions landed
	prof := netsim.DefaultProfile()
	var samples []float64
	for i := 0; i < nSessions; i++ {
		load := background[replicas[i]] + placed[replicas[i]]
		procMs := obsBaseProcMs + obsPerSessionMs*float64(load)
		samples = append(samples, simulateSession(sessionSpec{
			startSec: starts[i], endSec: obsVirtualSec, imuHz: obsIMUHz, vsyncHz: obsVsyncHz,
			turnaroundSec: procMs / 1000,
			up:            netsim.NewLink(prof, seed+int64(i)*2),
			down:          netsim.NewLink(prof, seed+int64(i)*2+1)}).mtp...)
	}
	v.MTP = mtpStats(samples)
	return v, samples, events, nil
}

// runObsCell runs one load shape through both placement strategies.
func runObsCell(nSessions int, seed int64, background []int) (ObsPlacementCell, []float64, []float64, *telemetry.FlightRecorder, error) {
	cell := ObsPlacementCell{Background: background}
	st, stSamples, _, err := runObsVariant(nSessions, seed, background, false)
	if err != nil {
		return cell, nil, nil, nil, err
	}
	lv, lvSamples, events, err := runObsVariant(nSessions, seed, background, true)
	if err != nil {
		return cell, nil, nil, nil, err
	}
	cell.Static, cell.Live = st, lv
	cell.LiveP99AdvantageMs = st.MTP.P99Ms - lv.MTP.P99Ms
	return cell, stSamples, lvSamples, events, nil
}

// runObsStitch drives obsAttrFrames frames across three nodes' span
// collectors and checks that stitched per-hop attribution telescopes to
// the end-to-end MTP sample.
func runObsStitch(seed int64) (ObsStitchCell, error) {
	cell := ObsStitchCell{Frames: obsAttrFrames, MeanHopMs: map[string]float64{}}

	client := telemetry.NewSpanCollector(0)
	gateway := telemetry.NewSpanCollector(0)
	gateway.SetIDBase(fleet.GatewayIDBase)
	replica := telemetry.NewSpanCollector(0)
	replica.SetIDBase(uint64(1) << 40) // bridge's per-session server range

	prof := netsim.DefaultProfile()
	clientGW := netsim.NewLink(prof, seed+1)
	gwReplica := netsim.NewLink(prof, seed+2)
	replicaGW := netsim.NewLink(prof, seed+3)
	gwClient := netsim.NewLink(prof, seed+4)

	type frameRec struct {
		displaySpan telemetry.SpanID
		endToEndMs  float64
	}
	var frames []frameRec
	for f := 0; f < obsAttrFrames; f++ {
		sampleT := float64(f) / 90.0
		trace := telemetry.TraceID(seed + int64(f))
		imu := client.Emit("imu", trace, sampleT, sampleT)
		gwInT := clientGW.Arrive(sampleT)
		gwUp := gateway.Emit(fleet.CompGatewayUp, trace, gwInT, gwInT, imu.Span)
		repT := gwReplica.Arrive(gwInT)
		netUp := replica.Emit("net_uplink", trace, repT, repT, gwUp.Span)
		integDone := repT + obsBaseProcMs/1000
		integ := replica.Emit("integrator", trace, repT, integDone, netUp.Span)
		gwOutT := replicaGW.Arrive(integDone)
		gwDown := gateway.Emit(fleet.CompGatewayDown, trace, gwOutT, gwOutT, integ.Span)
		cliT := gwClient.Arrive(gwOutT)
		netDown := client.Emit("net_downlink", trace, cliT, cliT, gwDown.Span)
		tv := math.Ceil(cliT*obsVsyncHz) / obsVsyncHz
		disp := client.Emit("display", trace, cliT, tv, netDown.Span)

		// the end-to-end measurement the attribution must reproduce
		m := telemetry.MTPSample{T: tv, IMUAge: (tv - sampleT) * 1000}
		frames = append(frames, frameRec{displaySpan: disp.Span, endToEndMs: m.Total()})
	}

	tr, err := stitch.Stitch(
		stitch.CollectorDump("client", client),
		stitch.CollectorDump("gateway", gateway),
		stitch.CollectorDump("replica-0", replica),
	)
	if err != nil {
		return cell, err
	}
	cell.Nodes = len(tr.Nodes)
	cell.Spans = tr.Len()

	hopSums := map[string]float64{}
	for _, fr := range frames {
		segs := tr.Attribute(fr.displaySpan)
		if len(segs) == 0 {
			return cell, fmt.Errorf("bench: no attribution for span %#x", uint64(fr.displaySpan))
		}
		total := stitch.SegmentsTotal(segs)
		if err := math.Abs(total - fr.endToEndMs); err > cell.MaxAttrErrMs {
			cell.MaxAttrErrMs = err
		}
		for _, s := range segs {
			hopSums[s.Node+"/"+s.Stage] += s.Ms
		}
	}
	for k, sum := range hopSums {
		cell.MeanHopMs[k] = sum / float64(len(frames))
	}
	return cell, nil
}

// runObsSLO replays both skewed variants' MTP streams through the real
// SLO engine and returns its snapshot.
func runObsSLO(staticSamples, liveSamples []float64) []slo.Status {
	eng := slo.NewEngine(nil)
	eng.AddObjective(slo.Objective{Name: "mtp_static", Bound: obsSLOBoundMs,
		Budget: obsSLOBudget, WindowSec: obsSLOWindowSec})
	eng.AddObjective(slo.Objective{Name: "mtp_live", Bound: obsSLOBoundMs,
		Budget: obsSLOBudget, WindowSec: obsSLOWindowSec})
	feed := func(name string, samples []float64) {
		for i, s := range samples {
			t := obsVirtualSec * float64(i) / float64(len(samples))
			eng.Observe(name, t, s)
		}
	}
	feed("mtp_static", staticSamples)
	feed("mtp_live", liveSamples)
	return eng.Snapshot()
}

// FleetObsExperiment runs the observability cells and prints the summary.
func FleetObsExperiment(w io.Writer, nSessions int, seed int64) (*FleetObsReport, error) {
	if nSessions < obsReplicas*2 || nSessions > obsCapacity*(obsReplicas-1) {
		return nil, fmt.Errorf("bench: fleetobs sessions must be in [%d, %d], got %d",
			obsReplicas*2, obsCapacity*(obsReplicas-1), nSessions)
	}

	rep := &FleetObsReport{
		Seed: seed, Sessions: nSessions, Replicas: obsReplicas,
		VirtualSec: obsVirtualSec, IMUHz: obsIMUHz, VsyncHz: obsVsyncHz,
		AttrBoundMs: ObsAttrBoundMs, BalancedEpsMs: ObsBalancedEpsMs,
		Note: fleetObsNote,
	}

	fmt.Fprintf(w, "Fleet observability experiment: %d sessions, %d replicas, seed %d\n",
		nSessions, obsReplicas, seed)

	balanced, _, _, _, err := runObsCell(nSessions, seed, make([]int, obsReplicas))
	if err != nil {
		return nil, err
	}
	rep.Balanced = balanced
	fmt.Fprintf(w, "  balanced: static p99 %.2f ms %v  live p99 %.2f ms %v\n",
		balanced.Static.MTP.P99Ms, balanced.Static.PerReplica,
		balanced.Live.MTP.P99Ms, balanced.Live.PerReplica)

	skewBG := make([]int, obsReplicas)
	skewBG[0] = obsBackgroundSessions
	skewed, stSamples, lvSamples, events, err := runObsCell(nSessions, seed, skewBG)
	if err != nil {
		return nil, err
	}
	rep.Skewed = skewed
	fmt.Fprintf(w, "  skewed (+%d hidden on replica 0): static p99 %.2f ms %v  live p99 %.2f ms %v  (advantage %.2f ms)\n",
		obsBackgroundSessions, skewed.Static.MTP.P99Ms, skewed.Static.PerReplica,
		skewed.Live.MTP.P99Ms, skewed.Live.PerReplica, skewed.LiveP99AdvantageMs)

	stitchCell, err := runObsStitch(seed)
	if err != nil {
		return nil, err
	}
	rep.Stitch = stitchCell
	fmt.Fprintf(w, "  stitch: %d frames over %d nodes (%d spans), max attribution error %.4f ms (bound %.1f)\n",
		stitchCell.Frames, stitchCell.Nodes, stitchCell.Spans,
		stitchCell.MaxAttrErrMs, ObsAttrBoundMs)

	rep.SLO = runObsSLO(stSamples, lvSamples)
	for _, st := range rep.SLO {
		fmt.Fprintf(w, "  slo %s: bound %.0f ms  bad %.2f%%  burn %.2fx  budget left %.0f%%\n",
			st.Name, st.Bound, st.BadFraction*100, st.BurnRate, st.BudgetRemaining*100)
	}

	rep.Events = ObsEventsCell{Recorded: events.Recorded(), ByKind: map[string]uint64{}}
	for _, ev := range events.Events() {
		rep.Events.ByKind[ev.Kind]++
	}
	fmt.Fprintf(w, "  flight recorder: %d events %v\n", rep.Events.Recorded, rep.Events.ByKind)

	return rep, nil
}
