package main

import (
	"fmt"
	"math"
	"time"
)

// Which workloads measure a per-layer metric.
const (
	onPaced = 1 << iota
	onSaturate
	onChurn
	onLive
	onOffload = onPaced | onSaturate
	onAll     = onOffload | onChurn | onLive
)

var workloadBit = map[string]int{wlPaced: onPaced, wlSaturate: onSaturate, wlChurn: onChurn, wlLive: onLive}

// notMeasured is what a traced run reports for a layer its workload does
// not exercise. The driver wants every per-layer metric from every
// workload; no row can measure a negative value except
// trace.unattributed_us, which every workload measures.
const notMeasured = -1

// perLayer is every per-layer metric BENCHMARK.json lists, with its unit
// and the workloads whose traced run measures it.
var perLayer = []struct {
	name, unit string
	on         int
}{
	// offload path, from the chains (typical-operation mean per layer)
	{"bridge.uplink_us", "us", onOffload},
	{"net.loopback_us", "us", onOffload},
	{"fleet.gw_up_us", "us", onOffload},
	{"fleet.gw_down_us", "us", onOffload},
	{"session.read_decode_us", "us", onOffload},
	{"bridge.handler_us", "us", onOffload},
	{"bridge.pose_path_us", "us", onOffload},
	{"bridge.downlink_us", "us", onOffload},
	{"trace.pose_rtt_p50_us", "us", onOffload},
	{"trace.unattributed_us", "us", onAll},
	{"fleet.gw_hop_by_diff_us", "us", onPaced},
	{"fleet.frames_per_write_up", "count", onOffload},
	{"fleet.frames_per_write_down", "count", onOffload},
	{"session.frames_per_write", "count", onOffload},
	{"session.pose_displaced_ratio", "ratio", onOffload},
	{"paced.pose_miss_ratio", "ratio", onPaced},
	{"gen.late_p99_us", "us", onPaced},
	// churn
	{"churn.admit_p50_us", "us", onChurn},
	{"churn.resume_p50_us", "us", onChurn},
	{"fleet.replica_dial_us", "us", onChurn},
	{"session.admit_us", "us", onChurn},
	{"bridge.session_start_us", "us", onChurn},
	{"bridge.session_end_us", "us", onChurn},
	{"session.teardown_us", "us", onChurn},
	{"fleet.resume_retry_ratio", "ratio", onChurn},
	{"fleet.coord_contention", "count", onOffload | onChurn},
	{"session.shard_contention", "count", onOffload | onChurn},
	// live
	{"live.frame_p50_ms", "ms", onLive},
	{"live.frame_p99_ms", "ms", onLive},
	{"runtime.perception_wait_ms", "ms", onLive},
	{"render.frame_ms", "ms", onLive},
	{"reprojection.warp_ms", "ms", onLive},
	{"audio.block_ms", "ms", onLive},
	{"vio.frame_ms_p50", "ms", onLive},
	{"vio.frame_ms_p99", "ms", onLive},
	{"vio.backlog_max", "count", onLive},
	{"parallel.tile_imbalance", "ratio", onLive},
	// isolated calls (micro.go)
	{"wire.encode_ns", "ns", onAll},
	{"wire.decode_ns", "ns", onAll},
	{"wire.relay_raw_ns", "ns", onAll},
	{"wire.allocs_per_frame", "count", onAll},
	{"wire.bytes_per_frame", "count", onAll},
	{"integrator.feed_ns", "ns", onAll},
	{"runtime.publish_ns", "ns", onAll},
	{"runtime.handoff_us", "us", onAll},
	{"fleet.coord_cycle_ns", "ns", onAll},
	{"parallel.dispatch_us", "us", onAll},
	{"binlog.record_ns", "ns", onAll},
	{"qos.batch_submit_ns", "ns", onAll},
	// process and run
	{"latency.p50_us", "us", onAll},
	{"latency.p90_us", "us", onAll},
	{"latency.p99_us", "us", onAll},
	{"recycle.hit_ratio", "ratio", onAll},
	{"proc.cpu_us_per_op", "us", onAll},
	{"proc.gc_cycles", "count", onAll},
	{"proc.gc_pause_ms", "ms", onAll},
	{"proc.peak_rss_mb", "mb", onAll},
	{"trace.overhead_ratio", "ratio", onAll},
}

// completePerLayer makes a traced result carry exactly BENCHMARK.json's
// per-layer metrics: a row the workload should have measured and did not
// fails the run, a row it does not exercise reads notMeasured, and rows
// that are not listed move to detail.
func completePerLayer(res *result) {
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.name] = true
		if _, ok := res.Metrics[m.name]; ok {
			continue
		}
		if m.on&workloadBit[res.Workload] != 0 {
			res.fail("per-layer metric %s was not measured", m.name)
		}
		res.set(m.name, notMeasured, m.unit)
	}
	for name, m := range res.Metrics {
		if !listed[name] {
			res.Detail[name] = m
			delete(res.Metrics, name)
		}
	}
}

// A traced run splits its window: the first third runs untraced as the
// reference, the rest runs with the trace on. The ratio of the two medians
// is the tracing overhead, from one process and one set of inputs.
func splitWindow(seconds float64) (reference, traced time.Duration) {
	ref := window(seconds / 3)
	return ref, window(seconds) - ref
}

// directWindow is the length of the gateway-less paced variant.
const directWindow = 2 * time.Second

// promote copies detail rows of an untraced-style report into the metrics
// of a traced result.
func promote(res *result, names ...string) {
	for _, n := range names {
		if m, ok := res.Detail[n]; ok {
			res.Metrics[n] = m
		}
	}
}

// checkChains fails the run if a chain is not contiguous, and reports how
// much of the traced total the layer rows leave unexplained.
func checkChains(res *result, chains []chain, unresolved int) (layers map[string]float64, total float64) {
	if len(chains) == 0 {
		res.fail("trace: no operation resolved (%d unresolved)", unresolved)
		return map[string]float64{}, 0
	}
	for _, c := range chains {
		if !c.contiguous() {
			res.fail("trace: spans of %s are not contiguous", c.id)
			break
		}
	}
	layers, total, unattributed := layerBudget(chains)
	res.set("trace.unattributed_us", unattributed, "us")
	res.detail("trace.chains", float64(len(chains)), "count")
	res.detail("trace.unresolved", float64(unresolved), "count")
	return layers, total
}

// emitTrace writes the run's chains to the workload's trace.json.
func emitTrace(res *result, chains []chain) {
	path, err := writeChromeTrace(res.Workload, chains)
	if err != nil {
		res.fail("trace file: %v", err)
		return
	}
	fmt.Printf("# trace written to %s\n", path)
}

func offloadTraced(res *result, paced bool) {
	refDur, trDur := splitWindow(res.Seconds)
	ref := offloadWindow(res, paced, refDur, nil, false)
	stride := 1
	if !paced {
		stride = saturateWindow
	}
	tr := newTracer(stride)
	o, err := setUpOffload(res.Seed, sessionsFor(res.Host), tr, false)
	if err != nil {
		res.fail("set-up: %v", err)
		return
	}
	run := runOffload(o.st, o.sessions, o.loop, paced, trDur, tr)
	coordContention, shardContention := o.st.contention()
	if err := o.tearDown(false); err != nil {
		res.fail("teardown: %v", err)
	}
	if ref == nil {
		return
	}
	reportOffload(res, run, paced)
	promote(res, "session.pose_displaced_ratio", "gen.late_p99_us", "recycle.hit_ratio",
		"proc.cpu_us_per_op", "proc.gc_cycles", "proc.gc_pause_ms", "proc.peak_rss_mb")
	if m, ok := res.Detail["pose_miss_ratio"]; ok {
		res.Metrics["paced.pose_miss_ratio"] = m
	}
	res.set("fleet.coord_contention", coordContention, "count")
	res.set("session.shard_contention", shardContention, "count")

	chains, unresolved := tr.offloadChains()
	layers, total := checkChains(res, chains, unresolved)
	res.set("trace.pose_rtt_p50_us", total, "us")
	res.set("bridge.uplink_us", layers["bridge.uplink"], "us")
	res.set("fleet.gw_up_us", layers["fleet.gw_up"], "us")
	res.set("session.read_decode_us", layers["session.read_decode"], "us")
	res.set("bridge.handler_us", layers["bridge.handler"], "us")
	res.set("bridge.pose_path_us", layers["bridge.pose_path"], "us")
	res.set("fleet.gw_down_us", layers["fleet.gw_down"], "us")
	res.set("bridge.downlink_us", layers["bridge.downlink"], "us")
	net := layers["net.client_gateway"] + layers["net.gateway_replica"] + layers["net.replica_gateway"] + layers["net.gateway_client"]
	res.set("net.loopback_us", net, "us")
	res.set("fleet.frames_per_write_up", tr.framesPerWrite(roleGwReplicaLeg), "count")
	res.set("fleet.frames_per_write_down", tr.framesPerWrite(roleGwClientLeg), "count")
	res.set("session.frames_per_write", tr.framesPerWrite(roleReplica), "count")
	// the latency rows come from the untraced reference window
	rttRef := summarize(ref.rttUs)
	latencyRows(res.Metrics, rttRef, 1)
	if rttRef.P50 > 0 {
		res.set("trace.overhead_ratio", summarize(run.rttUs).P50/rttRef.P50, "ratio")
	}
	if paced {
		// the paced chains must add up: that is what makes the rows a budget
		if un := res.Metrics["trace.unattributed_us"].Value; total > 0 && math.Abs(un) > 0.05*total {
			res.fail("trace: layer rows leave %.1f us of the %.1f us traced round trip unexplained (limit 5%%)", un, total)
		}
		// cross-check the gateway rows by differencing against a run with
		// no gateway on the path
		dtr := newTracer(1)
		if offloadWindow(res, true, directWindow, dtr, true) != nil {
			dchains, _ := dtr.offloadChains()
			if _, dtotal, _ := layerBudget(dchains); dtotal > 0 {
				res.set("fleet.gw_hop_by_diff_us", total-dtotal, "us")
				res.detail("trace.direct_pose_rtt_p50_us", dtotal, "us")
			}
		}
	}
	emitTrace(res, chains)
	microRows(res, o.loop, sessionsFor(res.Host))
}

func churnTraced(res *result) {
	refDur, trDur := splitWindow(res.Seconds)
	loop, st, err := setUpChurn(res.Seed, nil)
	if err != nil {
		res.fail("set-up: %v", err)
		return
	}
	ref := runChurn(st, loop, res.Seed, sessionsFor(res.Host), refDur, nil)
	if err := st.stop(); err != nil {
		res.fail("teardown: %v", err)
	}

	tr := newTracer(1)
	if loop, st, err = setUpChurn(res.Seed, tr); err != nil {
		res.fail("set-up: %v", err)
		return
	}
	run := runChurn(st, loop, res.Seed, sessionsFor(res.Host), trDur, tr)
	coordContention, shardContention := st.contention()
	if err := tearDownFleet(st); err != nil {
		res.fail("teardown: %v", err)
	}
	reportChurn(res, run)
	promote(res, "fleet.resume_retry_ratio", "recycle.hit_ratio",
		"proc.cpu_us_per_op", "proc.gc_cycles", "proc.gc_pause_ms", "proc.peak_rss_mb")
	res.Metrics["churn.admit_p50_us"] = res.Detail["admit_p50_us"]
	res.Metrics["churn.resume_p50_us"] = res.Detail["resume_p50_us"]
	res.set("fleet.coord_contention", coordContention, "count")
	res.set("session.shard_contention", shardContention, "count")

	chains, admitUs, startUs, endUs, teardownUs := tr.lifecycleChains()
	_, total := checkChains(res, chains, len(tr.lifecycles)-len(chains))
	res.detail("trace.lifecycle_p50_us", total, "us")
	dial := make([]float64, len(tr.dialNs))
	for i, ns := range tr.dialNs {
		dial[i] = float64(ns) / 1e3
	}
	res.set("fleet.replica_dial_us", median(dial), "us")
	res.set("session.admit_us", median(admitUs), "us")
	res.set("bridge.session_start_us", median(startUs), "us")
	res.set("bridge.session_end_us", median(endUs), "us")
	res.set("session.teardown_us", median(teardownUs), "us")
	firstRef := summarize(ref.firstPoseUs)
	latencyRows(res.Metrics, firstRef, 1)
	if firstRef.P50 > 0 {
		res.set("trace.overhead_ratio", summarize(run.firstPoseUs).P50/firstRef.P50, "ratio")
	}
	emitTrace(res, chains)
	microRows(res, loop, sessionsFor(res.Host))
}

func liveTraced(res *result) {
	refDur, trDur := splitWindow(res.Seconds)
	workers := sessionsFor(res.Host)
	window := func(dur time.Duration, traced bool) *liveRun {
		l, err := setUpLive(res.Seed, res.Seconds, workers, traced)
		if err != nil {
			res.fail("set-up: %v", err)
			return nil
		}
		run := runLive(l, dur, 0, traced)
		if traced {
			var ratios []float64
			for _, tiles := range l.pool.DrainTileCalls() {
				max, sum := 0.0, 0.0
				for _, ms := range tiles {
					sum += ms
					if ms > max {
						max = ms
					}
				}
				if sum > 0 {
					ratios = append(ratios, max/(sum/float64(len(tiles))))
				}
			}
			res.set("parallel.tile_imbalance", median(ratios), "ratio")
		}
		if err := l.tearDown(); err != nil {
			res.fail("teardown: %v", err)
		}
		return run
	}
	ref := window(refDur, false)
	run := window(trDur, true)
	if ref == nil || run == nil {
		return
	}
	reportLive(res, run)
	verifyLive(res, run, workers)
	promote(res, "runtime.perception_wait_ms", "render.frame_ms", "reprojection.warp_ms", "audio.block_ms",
		"recycle.hit_ratio", "proc.cpu_us_per_op", "proc.gc_cycles", "proc.gc_pause_ms", "proc.peak_rss_mb")
	res.Metrics["live.frame_p50_ms"] = res.Detail["frame_p50_ms"]
	res.Metrics["live.frame_p99_ms"] = res.Detail["frame_p99_ms"]
	vioMs := summarize(run.vioMs)
	res.set("vio.frame_ms_p50", vioMs.P50, "ms")
	res.set("vio.frame_ms_p99", vioMs.P99, "ms")
	res.set("vio.backlog_max", float64(run.vioBacklogMax), "count")
	latencyRows(res.Metrics, summarize(ref.mtpMs), 1e3)
	if p50 := summarize(ref.frameMs).P50; p50 > 0 {
		res.set("trace.overhead_ratio", summarize(run.frameMs).P50/p50, "ratio")
	}

	chains := make([]chain, 0, len(run.spans))
	for _, sp := range run.spans {
		ts := []int64{sp.start, sp.posed, sp.rendered, sp.fresh, sp.warped, sp.audioD, sp.end}
		ch := chain{id: fmt.Sprintf("frame/%d", sp.frame), group: "frames"}
		for k, name := range []string{"runtime.perception_wait", "render.frame", "runtime.fresh_pose_wait", "reprojection.warp", "audio.blocks", "display.checksum"} {
			ch.spans = append(ch.spans, span{Name: name, Node: "frame loop", Start: ts[k], End: ts[k+1]})
		}
		chains = append(chains, ch)
	}
	checkChains(res, chains, 0)
	emitTrace(res, chains)
	microRows(res, newSensorLoop(res.Seed, 1), workers)
}
