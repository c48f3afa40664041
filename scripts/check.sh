#!/bin/sh
# Full verification gate: vet, build, and the race-enabled test suite
# (includes the switchboard concurrency stress test), then repeated-count,
# determinism, fuzz, allocation and benchmark smoke stages. Run via
# `make check` or directly.
set -eu
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# quiet CMD [ARG...] runs a command with its output kept in a file. On a
# non-zero exit it prints the command line and that output, then returns
# the command's status, which set -e turns into the end of the script.
quiet() {
	"$@" >"$TMP/quiet.out" 2>&1 && return 0
	status=$?
	echo "check: FAILED (exit $status): $*" >&2
	cat "$TMP/quiet.out" >&2
	return "$status"
}

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
quiet go test -race -count=50 -run TestDownlinkStopLeavesNoError ./internal/netxr/bridge
# pooled connection buffers: a released reader or writer reissued to the
# next conn carries nothing over, and Close racing the uplink forwarder
# must end its writes before the writer goes back to the pool
quiet go test -race -count=50 -run 'TestReaderReleaseReissueReadsOnlyTheNewConn|TestWriterReleaseDropsQueuedFrames' ./internal/netxr/wire
quiet go test -race -count=50 -run TestCloseRacesUplinkForwarder ./internal/netxr/bridge
# the span store is id-ordered with no index: concurrent emitters must
# keep it so, or Get and Lineage miss spans
quiet go test -race -count=20 -run TestConcurrentEmitKeepsIDOrder ./internal/telemetry
# so are admission racing teardown and the registry's ack/end storm
quiet go test -race -count=20 -run TestHandleConnRacesTeardown ./internal/netxr/session
quiet go test -race -count=20 -run TestAckEndStorm ./internal/netxr/fleet
# the elastic subscription hands events channel -> ring -> pump -> channel
# while Cancel and publishers race it: order, the displaced count and
# no-send-on-closed must hold across many interleavings
# and an empty C that is Drained must be the end of a burst, not a pause
# while the pump refills it (the uplink flushes there)
quiet go test -race -count=20 -run 'TestStalledConsumer|TestConsumerRacesPublisher|TestCancelReleasesBlockedPump|TestSwitchboardPublishCancelStress|TestDrainedMarksTheEndNotAPause' ./internal/runtime
# the integrator publishes the newest pose of a backlog: bounded, and
# ending on the burst's last sample
quiet go test -race -count=20 -run 'TestIntegratorBurst|TestIntegratorSpaced' ./internal/core
# the replica integrates on the session reader: a burst read in one go
# comes back latest-wins and fully accounted, and a handler panic ends
# its own session only
quiet go test -race -count=20 -run TestPoseBurstIsLatestWinsAndAccounted ./internal/netxr/bridge
quiet go test -race -count=20 -run TestHandlerPanicEndsOnlyItsSession ./internal/netxr/session
# the latest-wins slots are an array indexed by frame type: a producer
# sending LatestWins and one sending Reliable, with the writer draining
# between them, must lose no reliable frame and account every pose
quiet go test -race -count=20 -run TestSendLatestWinsAndReliableFromTwoGoroutines ./internal/netxr/session
# and a consumer that pairs two topics (VIO: IMU up to each camera frame)
# must get the same answer however far behind the pump finds it
quiet go test -count=20 -run TestVIOPluginStalledMatchesUnstalled ./internal/core
# the rasteriser's two pool passes share the scene and one framebuffer
# between workers: every set-up tile must write only its own instance's
# buffers, and every band only its own rows
quiet go test -race -count=10 -run TestDeterminismRender ./internal/render
# a node must give back every goroutine it started; Pool.Close must
# hold against kernels in flight
quiet go test -race -count=20 -run 'TestCloseReturnsEverything' ./internal/netxr/node
quiet go test -race -count=50 -run TestPoolCloseRacesDispatch ./internal/parallel
# the filter's arena hands the same memory to every stage of every frame:
# the bit-exact fixtures, once more on their own so a failure names them
quiet go test -race -run TestGoldenFilter ./internal/vio
# a replica leg outlives its session: Shutdown racing a relay that is
# parking a leg, and a Hello racing IdleTimeout on a waiting connection,
# must close every connection exactly once and never strand a session
quiet go test -race -count=20 -run 'TestGatewayParksLegAfterBothByes|TestGatewayClosesLegOnOtherEndings|TestRelayClosesClientOnce|TestParkedLegsCloseOnDownAndShutdown|TestShutdownRacesParking' ./internal/netxr/fleet
quiet go test -race -count=20 -run 'TestKeptConnWaitsOutsideTheTable|TestKeptConnHelloRacesIdleTimeout|TestKeptConnHelloDoesNotWaitForSessionEnd' ./internal/netxr/session
quiet go test -race -count=20 -run 'TestSequentialLifecyclesShareOneLeg|TestIdledOutLegIsRedialled' ./internal/netxr/node

stage "determinism tests at GOMAXPROCS=2 and GOMAXPROCS=8"
# the parallel kernels must be bitwise identical for every worker count,
# independent of how many OS threads actually back the pool
quiet env GOMAXPROCS=2 go test -run Determinism -count=2 ./internal/...
quiet env GOMAXPROCS=8 go test -run Determinism -count=2 ./internal/...
# and so must the synthesized inputs: the recording and the clips are
# computed on tiles with every random draw in one serial pass
quiet env GOMAXPROCS=2 go test -run 'TestDatasetGolden|TestSourcePCMGolden' ./internal/sensors ./internal/audio
quiet env GOMAXPROCS=8 go test -run 'TestDatasetGolden|TestSourcePCMGolden' ./internal/sensors ./internal/audio
# and every example prints the same bytes however its goroutines are
# scheduled: a line that varies fails under its example's golden test
quiet env GOMAXPROCS=2 go test -count=2 ./examples/...
quiet env GOMAXPROCS=8 go test -count=2 ./examples/...

stage "fuzz smokes (5s each)"
# Summarize first: its Min <= Mean <= Max invariant once failed one smoke
# in three, so a regression there should be the first thing to trip
quiet go test -run='^$' -fuzz=FuzzSummarize -fuzztime=5s ./internal/telemetry
quiet go test -run='^$' -fuzz=FuzzQuatNormalize -fuzztime=5s ./internal/mathx
quiet go test -run='^$' -fuzz=FuzzSE3 -fuzztime=5s ./internal/mathx
quiet go test -run='^$' -fuzz=FuzzMulMatInto -fuzztime=5s ./internal/mathx
quiet go test -run='^$' -fuzz=FuzzSSIMWindow -fuzztime=5s ./internal/quality
quiet go test -run='^$' -fuzz=FuzzWireDecode -fuzztime=5s ./internal/netxr/wire
# the in-place parse against the scratch path, frame for frame and error
# for error
quiet go test -run='^$' -fuzz=FuzzReaderStream -fuzztime=5s ./internal/netxr/wire
quiet go test -run='^$' -fuzz=FuzzBinlogDecode -fuzztime=5s ./internal/netxr/binlog

stage "observability smoke test"
# a one-second instrumented run must export a well-formed Chrome trace
# and a non-empty metrics dump
go build -o "$TMP/illixr-bench" ./cmd/illixr-bench
go build -o "$TMP/benchcheck" ./scripts/benchcheck
quiet go run ./cmd/illixr-run -app platformer -duration 1 \
	-trace-out "$TMP/trace.json" -metrics-out "$TMP/metrics.txt"
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
quiet "$TMP/illixr-bench" -exp parallel -out-dir "$TMP"
"$TMP/benchcheck" parallel "$TMP/BENCH_parallel.json"

stage "zero-allocation regression tests"
# the only allocation gate: every pooled hot path has a TestZeroAlloc*
# beside it, and ./internal/... finds one a new package gains.
# AllocsPerRun needs real allocation counts, so this pass runs without
# -race (the tests skip themselves when the detector is compiled in).
# TestZeroAllocRenderFrame covers all four apps, so an animated scene that
# allocates a mesh per frame fails here, and Sponza along the live walk,
# so an instance that comes into view late does too; TestVIOFrameAllocBudget
# runs the front end with the filter, TestZeroAllocBinauralPublish the
# audio plugin's publish; a session lifecycle has a budget
# end to end and one each for the replica (with and without -vio), the
# gateway relay and the client runtime, so a regression names its layer
quiet go test -run 'TestZeroAlloc|TestVIOFrameAllocBudget|TestSessionLifecycleAllocBudget|TestReplicaLifecycleAllocBudget|TestVIOReplicaLifecycleAllocBudget|TestGatewayRelayAllocBudget|TestClientRuntimeAllocBudget' ./internal/...

stage "per-package benchmarks (run, not gated, so they cannot rot)"
quiet go test -run='^$' -bench=BenchmarkUplinkBurst -benchtime=100ms ./internal/netxr/bridge
quiet go test -run='^$' -bench='BenchmarkSubscribeCancel|BenchmarkPublishDeliver|BenchmarkPublishOverflow' -benchmem -benchtime=100ms ./internal/runtime
quiet go test -run='^$' -bench='BenchmarkNewReaderFirstFrame|BenchmarkReadFrameBurst' -benchmem -benchtime=100ms ./internal/netxr/wire
quiet go test -run='^$' -bench=BenchmarkSpanEmit -benchmem -benchtime=100ms ./internal/telemetry
quiet go test -run='^$' -bench=BenchmarkRK4Step -benchtime=100ms ./internal/integrator
quiet go test -run='^$' -bench=BenchmarkIntegratorPluginBurst -benchmem -benchtime=100ms ./internal/core
quiet go test -run='^$' -bench=BenchmarkSessionLifecycle -benchmem -benchtime=100ms ./internal/netxr/node
quiet go test -run='^$' -bench=BenchmarkCoordinatorCycle -benchtime=100ms -cpu 1,2 ./internal/netxr/fleet
quiet go test -run='^$' -bench=BenchmarkSessionTableChurn -benchtime=100ms -cpu 1,2 ./internal/netxr/session
quiet go test -run='^$' -bench=BenchmarkRenderSponza -benchmem -benchtime=100ms -cpu 1,2 ./internal/render
quiet go test -run='^$' -bench=BenchmarkRenderLive -benchmem -benchtime=100ms -cpu 1,2 ./internal/render
quiet go test -run='^$' -bench='BenchmarkReproject320x180|BenchmarkReproject1280x720' -benchmem -benchtime=100ms -cpu 1,2 ./internal/reprojection
quiet go test -run='^$' -bench='BenchmarkEncodeBlock|BenchmarkPlaybackBlock|BenchmarkSpeechLikeSource' -benchmem -benchtime=100ms -cpu 1,2 ./internal/audio
quiet go test -run='^$' -bench=BenchmarkGenerateDataset -benchmem -benchtime=100ms -cpu 1,2 ./internal/sensors
quiet go test -run='^$' -bench='BenchmarkCholeskySolveMat|BenchmarkMulMatInto' -benchmem -benchtime=100ms -cpu 1,2 ./internal/mathx
quiet go test -run='^$' -bench=BenchmarkVIORun -benchmem -benchtime=100ms ./internal/vio
quiet go test -run='^$' -bench=BenchmarkTable6Recon_Frame -benchmem -benchtime=100ms ./internal/reconstruct
quiet go test -run='^$' -bench=BenchmarkTable7Hologram_GSW -benchmem -benchtime=100ms ./internal/hologram
quiet go test -run='^$' -bench=BenchmarkEyeTracking_Inference -benchmem -benchtime=100ms ./internal/eyetrack

stage ""
echo "check: OK"
