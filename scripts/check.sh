#!/bin/sh
# Full verification gate: vet, build, and the race-enabled test suite
# (includes the switchboard concurrency stress test and the supervisor
# restart tests). Run via `make check` or directly.
set -eu
cd "$(dirname "$0")/.."

# stage NAME starts a stage; each stage's wall time prints when the next
# one starts, and the last one's before "check: OK"
stage_name="" stage_t0=0
stage() {
	if [ -n "$stage_name" ]; then
		echo "   $stage_name: $(($(date +%s) - stage_t0)) s"
	fi
	stage_name=$1
	stage_t0=$(date +%s)
	[ -z "$1" ] || echo "== $1"
}

stage "go vet ./..."
go vet ./...
# the caller rule (DESIGN.md §16) and the docs' test citations: seconds,
# so a sweep that left a dead export fails before the race stage
go test ./scripts/callers
go test -run TestDocsCiteExistingTests .
# a seed corpus file must never match .gitignore (it once swallowed the
# binlog corpus and turned tier-1 red on a fresh clone)
git check-ignore -q internal/netxr/binlog/testdata/fuzz/FuzzBinlogDecode/seed-00 && { echo "seed corpus is git-ignored" >&2; exit 1; }
# a crash the fuzzer rediscovers lands as a hash-named file that turns
# local `go test` red: triage it and check it in as seed-*, never leave it
if find . -path '*/testdata/fuzz/*' -type f | grep -E '/[0-9a-f]{16}$'; then
	echo "hash-named fuzz corpus file(s) above: triage and rename to seed-*" >&2
	exit 1
fi
# the commands are flag parsing around internal/netxr/node: composition
# (and the file helper every main once carried) must not grow back there
if grep -nE 'session\.NewServer|fleet\.NewCoordinator|fleet\.NewScraper|qos\.New|bridge\.Pipeline\{|fleet\.Gateway\{|func writeFile' cmd/*/main.go; then
	echo "composition in package main (above): build it in internal/netxr/node" >&2
	exit 1
fi
stage "go build ./..."
go build ./...
stage "go test -race ./..."
# race instrumentation slows the heavy numeric packages ~10-20x, so the
# per-package timeout must be far above go test's 10m default
go test -race -timeout 60m ./...
stage "repeated-count stress stages"
# the downlink stop/reader ordering is a narrow window: many rounds
go test -race -count=50 -run TestDownlinkStopLeavesNoError ./internal/netxr/bridge >/dev/null
# pooled connection buffers: a released reader or writer reissued to the
# next conn carries nothing over, and Close racing the uplink forwarder
# must end its writes before the writer goes back to the pool
go test -race -count=50 -run 'TestReaderReleaseReissueReadsOnlyTheNewConn|TestWriterReleaseDropsQueuedFrames' ./internal/netxr/wire >/dev/null
go test -race -count=50 -run TestCloseRacesUplinkForwarder ./internal/netxr/bridge >/dev/null
# the span store is id-ordered with no index: concurrent emitters must
# keep it so, or Get and Lineage miss spans
go test -race -count=20 -run TestConcurrentEmitKeepsIDOrder ./internal/telemetry >/dev/null
# so are admission racing teardown and the registry's ack/end storm
go test -race -count=20 -run TestHandleConnRacesTeardown ./internal/netxr/session >/dev/null
go test -race -count=20 -run TestAckEndStorm ./internal/netxr/fleet >/dev/null
# the elastic subscription hands events channel -> ring -> pump -> channel
# while Cancel and publishers race it: order, the displaced count and
# no-send-on-closed must hold across many interleavings
# and an empty C that is Drained must be the end of a burst, not a pause
# while the pump refills it (the uplink flushes there)
go test -race -count=20 -run 'TestStalledConsumer|TestConsumerRacesPublisher|TestCancelReleasesBlockedPump|TestSwitchboardPublishCancelStress|TestDrainedMarksTheEndNotAPause' ./internal/runtime >/dev/null
# the integrator publishes the newest pose of a backlog: bounded, ending
# on the burst's last sample, and flushed before an injected panic
go test -race -count=20 -run 'TestIntegratorBurst|TestIntegratorSpaced|TestIntegratorPanicMidBatch' ./internal/core >/dev/null
# the replica integrates on the session reader: a burst read in one go
# comes back latest-wins and fully accounted, and a handler panic ends
# its own session only
go test -race -count=20 -run TestPoseBurstIsLatestWinsAndAccounted ./internal/netxr/bridge >/dev/null
go test -race -count=20 -run TestHandlerPanicEndsOnlyItsSession ./internal/netxr/session >/dev/null
# the latest-wins slots are an array indexed by frame type: a producer
# sending LatestWins and one sending Reliable, with the writer draining
# between them, must lose no reliable frame and account every pose
go test -race -count=20 -run TestSendLatestWinsAndReliableFromTwoGoroutines ./internal/netxr/session >/dev/null
# and a consumer that pairs two topics (VIO: IMU up to each camera frame)
# must get the same answer however far behind the pump finds it
go test -count=20 -run TestVIOPluginStalledMatchesUnstalled ./internal/core >/dev/null
# a supervisor transition must reach the health board before anyone can
# read it off the supervisor: the window was a few instructions wide and
# only showed on a busy host
go test -race -count=2000 -run TestSupervisorRestartsPanickedPlugin ./internal/runtime >/dev/null
go test -race -count=20 -run TestSupervisorBoardNeverBehind ./internal/runtime >/dev/null
# the band rasteriser shares one triangle list and one framebuffer between
# workers: every band must stay inside its own rows
go test -race -count=10 -run TestDeterminismRender ./internal/render >/dev/null
# a node must give back every goroutine it started, and handle a frame
# still parked in the batcher before its capture closes; Pool.Close must
# hold against kernels in flight
go test -race -count=20 -run 'TestCloseReturnsEverything|TestCloseHandlesParkedFrameBeforeCaptureCloses' ./internal/netxr/node >/dev/null
go test -race -count=50 -run TestPoolCloseRacesDispatch ./internal/parallel >/dev/null
# the filter's arena hands the same memory to every stage of every frame:
# the bit-exact fixtures, once more on their own so a failure names them
go test -race -run TestGoldenFilter ./internal/vio >/dev/null
# a replica leg outlives its session: Shutdown racing a relay that is
# parking a leg, and a Hello racing IdleTimeout on a waiting connection,
# must close every connection exactly once and never strand a session
go test -race -count=20 -run 'TestGatewayParksLegAfterBothByes|TestGatewayClosesLegOnOtherEndings|TestParkedLegsCloseOnDownAndShutdown|TestShutdownRacesParking' ./internal/netxr/fleet >/dev/null
go test -race -count=20 -run 'TestKeptConnWaitsOutsideTheTable|TestKeptConnHelloRacesIdleTimeout|TestKeptConnHelloDoesNotWaitForSessionEnd' ./internal/netxr/session >/dev/null
go test -race -count=20 -run 'TestSequentialLifecyclesShareOneLeg|TestIdledOutLegIsRedialled' ./internal/netxr/node >/dev/null

stage "determinism tests at GOMAXPROCS=2 and GOMAXPROCS=8"
# the parallel kernels must be bitwise identical for every worker count,
# independent of how many OS threads actually back the pool
GOMAXPROCS=2 go test -run Determinism -count=2 ./internal/... >/dev/null
GOMAXPROCS=8 go test -run Determinism -count=2 ./internal/... >/dev/null
# and so must the synthesized inputs: the recording and the clips are
# computed on tiles with every random draw in one serial pass
GOMAXPROCS=2 go test -run 'TestDatasetGolden|TestSourcePCMGolden' ./internal/sensors ./internal/audio >/dev/null
GOMAXPROCS=8 go test -run 'TestDatasetGolden|TestSourcePCMGolden' ./internal/sensors ./internal/audio >/dev/null

stage "fuzz smokes (5s each)"
# Summarize first: its Min <= Mean <= Max invariant once failed one smoke
# in three, so a regression there should be the first thing to trip
go test -run='^$' -fuzz=FuzzSummarize -fuzztime=5s ./internal/telemetry >/dev/null
go test -run='^$' -fuzz=FuzzQuatNormalize -fuzztime=5s ./internal/mathx >/dev/null
go test -run='^$' -fuzz=FuzzSE3 -fuzztime=5s ./internal/mathx >/dev/null
go test -run='^$' -fuzz=FuzzSSIMWindow -fuzztime=5s ./internal/quality >/dev/null
go test -run='^$' -fuzz=FuzzWireDecode -fuzztime=5s ./internal/netxr/wire >/dev/null
# the in-place parse against the scratch path, frame for frame and error
# for error
go test -run='^$' -fuzz=FuzzReaderStream -fuzztime=5s ./internal/netxr/wire >/dev/null
go test -run='^$' -fuzz=FuzzBinlogDecode -fuzztime=5s ./internal/netxr/binlog >/dev/null

stage "observability smoke test"
# a one-second instrumented run must export a well-formed Chrome trace
# and a non-empty metrics dump
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/illixr-bench" ./cmd/illixr-bench
go build -o "$TMP/benchcheck" ./scripts/benchcheck
go run ./cmd/illixr-run -app platformer -duration 1 \
	-trace-out "$TMP/trace.json" -metrics-out "$TMP/metrics.txt" >/dev/null
"$TMP/benchcheck" trace "$TMP/trace.json"
grep -q '^illixr_' "$TMP/metrics.txt" || {
	echo "metrics dump has no illixr_ metrics" >&2
	exit 1
}

stage "command flags: names, defaults and help text against scripts/testdata/help"
for c in illixr-serve illixr-gateway illixr-client; do
	go build -o "$TMP/$c" ./cmd/$c
	# line 1 names the binary's path; flag prints the rest to stderr
	"$TMP/$c" -h 2>&1 | tail -n +2 | diff -u "scripts/testdata/help/$c.txt" - || {
		echo "$c -h differs from scripts/testdata/help/$c.txt" >&2
		exit 1
	}
done

stage "bench smoke: the one report whose gate reads host wall times"
# a typo in an -exp id must fail, not pass as an empty run
if "$TMP/illixr-bench" -exp bogus >/dev/null 2>&1; then
	echo "illixr-bench accepted an unknown experiment id" >&2
	exit 1
fi
# parallel: the 4-worker run must show the modeled parallelism and must
#   not regress the quality kernels against serial (its wall_* fields).
# network and qos are seed-deterministic: tier-1's
# TestCheckedInReportsReproduce regenerates each at -duration 30 -seed 42
# and requires the checked-in file byte for byte, and
# TestCheckedInReportsPassCheck gates it.
"$TMP/illixr-bench" -exp parallel -out-dir "$TMP" >/dev/null
"$TMP/benchcheck" parallel "$TMP/BENCH_parallel.json"

stage "zero-allocation regression tests"
# the only allocation gate: every pooled hot path has a TestZeroAlloc*
# beside it, and ./internal/... finds one a new package gains.
# AllocsPerRun needs real allocation counts, so this pass runs without
# -race (the tests skip themselves when the detector is compiled in).
# TestZeroAllocRenderFrame covers all four apps, so an animated scene that
# allocates a mesh per frame fails here; a session lifecycle has a budget
# end to end and one each for the replica and the gateway relay, so a
# regression names its layer
go test -run 'TestZeroAlloc|TestVIOFrameAllocBudget|TestSessionLifecycleAllocBudget|TestReplicaLifecycleAllocBudget|TestGatewayRelayAllocBudget' ./internal/... >/dev/null

stage "per-package benchmarks (run, not gated, so they cannot rot)"
go test -run='^$' -bench=BenchmarkUplinkBurst -benchtime=100ms ./internal/netxr/bridge >/dev/null
go test -run='^$' -bench='BenchmarkSubscribeCancel|BenchmarkPublishDeliver|BenchmarkPublishOverflow' -benchmem -benchtime=100ms ./internal/runtime >/dev/null
go test -run='^$' -bench='BenchmarkNewReaderFirstFrame|BenchmarkReadFrameBurst' -benchmem -benchtime=100ms ./internal/netxr/wire >/dev/null
go test -run='^$' -bench=BenchmarkSpanEmit -benchmem -benchtime=100ms ./internal/telemetry >/dev/null
go test -run='^$' -bench=BenchmarkRK4Step -benchtime=100ms ./internal/integrator >/dev/null
go test -run='^$' -bench=BenchmarkIntegratorPluginBurst -benchmem -benchtime=100ms ./internal/core >/dev/null
go test -run='^$' -bench=BenchmarkSessionLifecycle -benchmem -benchtime=100ms ./internal/netxr/node >/dev/null
go test -run='^$' -bench=BenchmarkCoordinatorCycle -benchtime=100ms -cpu 1,2 ./internal/netxr/fleet >/dev/null
go test -run='^$' -bench=BenchmarkSessionTableChurn -benchtime=100ms -cpu 1,2 ./internal/netxr/session >/dev/null
go test -run='^$' -bench=BenchmarkRenderSponza -benchmem -benchtime=100ms -cpu 1,2 ./internal/render >/dev/null
go test -run='^$' -bench=BenchmarkRenderLive -benchmem -benchtime=100ms -cpu 1,2 ./internal/render >/dev/null
go test -run='^$' -bench='BenchmarkReproject320x180|BenchmarkReproject1280x720' -benchmem -benchtime=100ms -cpu 1,2 ./internal/reprojection >/dev/null
go test -run='^$' -bench='BenchmarkEncodeBlock|BenchmarkPlaybackBlock|BenchmarkSpeechLikeSource' -benchmem -benchtime=100ms -cpu 1,2 ./internal/audio >/dev/null
go test -run='^$' -bench=BenchmarkGenerateDataset -benchmem -benchtime=100ms -cpu 1,2 ./internal/sensors >/dev/null
go test -run='^$' -bench='BenchmarkCholeskySolveMat|BenchmarkMulMatInto' -benchmem -benchtime=100ms -cpu 1,2 ./internal/mathx >/dev/null
go test -run='^$' -bench=BenchmarkVIORun -benchmem -benchtime=100ms ./internal/vio >/dev/null
go test -run='^$' -bench=BenchmarkTable6Recon_Frame -benchmem -benchtime=100ms ./internal/reconstruct >/dev/null
go test -run='^$' -bench=BenchmarkTable7Hologram_GSW -benchmem -benchtime=100ms ./internal/hologram >/dev/null
go test -run='^$' -bench=BenchmarkEyeTracking_Inference -benchmem -benchtime=100ms ./internal/eyetrack >/dev/null

stage ""
echo "check: OK"
