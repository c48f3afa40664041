// Command illixr-run executes one integrated ILLIXR run — one application
// on one modelled platform — and prints its end-to-end metrics, the
// per-run equivalent of the paper's runner.sh (§III, appendix E).
//
// Usage:
//
//	illixr-run -app sponza -platform desktop -duration 30
//	illixr-run -app platformer -platform jetson-lp -quality
//	illixr-run -app platformer -fault-scenario vio-stall -fault-seed 11
//	illixr-run -app sponza -trace-out trace.json -metrics-out metrics.txt
//	illixr-run -app sponza -debug-addr :8080   # /metrics /spans /debug/pprof/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"illixr/internal/bench"
	"illixr/internal/config"
	"illixr/internal/core"
	"illixr/internal/debughttp"
	"illixr/internal/faults"
	"illixr/internal/perfmodel"
	"illixr/internal/recycle"
	"illixr/internal/render"
	"illixr/internal/telemetry"
)

func main() {
	appName := flag.String("app", "sponza", "application: sponza|materials|platformer|ar_demo")
	platName := flag.String("platform", "desktop", "platform: desktop|jetson-hp|jetson-lp")
	duration := flag.Float64("duration", 30, "virtual seconds")
	quality := flag.Bool("quality", false, "run the offline SSIM/FLIP pipeline too")
	workers := flag.Int("workers", 1,
		"data-parallel workers for the visual/quality/audio kernels (1 = serial; results are bitwise identical)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	faultScenario := flag.String("fault-scenario", "none",
		"inject a seeded fault schedule: "+strings.Join(faults.ScenarioNames(), "|"))
	faultSeed := flag.Int64("fault-seed", 42, "seed for the fault schedule")
	traceOut := flag.String("trace-out", "", "write causal spans as Chrome trace JSON to this file")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry to this file (Prometheus text, as /metrics?format=prometheus)")
	debugAddr := flag.String("debug-addr", "",
		"serve /metrics /spans /debug/pprof/ on this address (e.g. :8080); keeps running after the run until interrupted")
	flag.Parse()
	if !(*duration > 0) {
		fmt.Fprintf(flag.CommandLine.Output(), "invalid value %v for flag -duration: must be positive\n", *duration)
		flag.Usage()
		os.Exit(2)
	}

	plat, ok := perfmodel.PlatformByName(*platName)
	if !ok {
		log.Fatalf("unknown platform %q", *platName)
	}
	valid := false
	for _, a := range render.AllApps {
		if string(a) == *appName {
			valid = true
		}
	}
	if !valid {
		log.Fatalf("unknown app %q", *appName)
	}

	cfg := core.DefaultRunConfig(render.AppName(*appName), plat)
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.System.Workers = *workers
	if *quality {
		cfg.QualityFrames = 8
	}
	if *faultScenario != "" && *faultScenario != "none" {
		fc, err := faults.Scenario(*faultScenario, *faultSeed, *duration)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = faults.Generate(fc)
	}

	// Observability: collectors are installed whenever any sink wants them,
	// and the debug endpoint comes up before the run so it is live while
	// the system executes.
	wantObs := *traceOut != "" || *metricsOut != "" || *debugAddr != ""
	if wantObs {
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Spans = telemetry.NewSpanCollector(0)
		recycle.Instrument(cfg.Metrics)
	}
	var stopDebug func()
	if *debugAddr != "" {
		srv := &debughttp.Server{
			Metrics: cfg.Metrics,
			Spans:   cfg.Spans,
			Mem:     telemetry.NewRuntimeMem(cfg.Metrics),
		}
		addr, stop, err := srv.Serve(*debugAddr)
		if err != nil {
			log.Fatalf("debug endpoint: %v", err)
		}
		stopDebug = stop
		fmt.Printf("debug endpoint listening on http://%s (metrics, spans, pprof)\n", addr)
	}

	res := core.Run(cfg)

	fmt.Printf("ILLIXR-Go integrated run: app=%s platform=%s duration=%.0fs seed=%d\n\n",
		res.App, res.Platform, res.Duration, *seed)

	t := &telemetry.Table{
		Title:  "Component frame rates and execution times",
		Header: []string{"Component", "Rate Hz", "Target", "Dropped", "Exec ms (mean±std)", "max"},
	}
	for _, c := range core.Components {
		s := telemetry.Summarize(res.ExecMs[c])
		t.AddRow(c,
			fmt.Sprintf("%.1f", res.FrameRateHz[c]),
			fmt.Sprintf("%.0f", res.TargetHz[c]),
			fmt.Sprint(res.Dropped[c]),
			fmt.Sprintf("%.2f±%.2f", s.Mean, s.Std),
			fmt.Sprintf("%.2f", s.Max))
	}
	t.Render(os.Stdout)

	m := res.MTPSummary()
	fmt.Printf("\nMotion-to-photon latency: %.1f±%.1f ms (VR target %.0f, AR target %.0f)\n",
		m.Mean, m.Std, config.TargetMTPVRMs, config.TargetMTPARMs)
	fmt.Printf("Head-tracking ATE: %.1f cm\n", 100*res.VIOATE)
	fmt.Printf("CPU utilization: %.0f%%  GPU utilization: %.0f%%\n", 100*res.CPUUtil, 100*res.GPUUtil)
	cpu, gpu, ddr, soc, sys := res.Power.Shares()
	fmt.Printf("Power: %.1f W (CPU %.0f%%, GPU %.0f%%, DDR %.0f%%, SoC %.0f%%, Sys %.0f%%)\n",
		res.Power.Total(), 100*cpu, 100*gpu, 100*ddr, 100*soc, 100*sys)
	if *quality {
		fmt.Printf("Image quality vs idealized system: SSIM %.2f±%.2f, 1-FLIP %.2f±%.2f\n",
			res.SSIM.Mean, res.SSIM.Std, res.OneMinusFLIP.Mean, res.OneMinusFLIP.Std)
	}
	if res.Faults != nil {
		fmt.Printf("\nFault scenario %q (seed %d), schedule fingerprint %016x\n\n",
			*faultScenario, *faultSeed, res.Faults.Schedule.Fingerprint())
		bench.RenderFaultReport(os.Stdout, res)
	}

	if *traceOut != "" {
		if err := telemetry.WriteFile(*traceOut, cfg.Spans.WriteChromeTrace); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		fmt.Printf("\nWrote %d spans (%d dropped) to %s — open in chrome://tracing or Perfetto\n",
			cfg.Spans.Len(), cfg.Spans.Dropped(), *traceOut)
	}
	if *metricsOut != "" {
		if err := telemetry.WriteFile(*metricsOut, cfg.Metrics.WritePrometheus); err != nil {
			log.Fatalf("metrics-out: %v", err)
		}
		fmt.Printf("Wrote metrics to %s\n", *metricsOut)
	}
	if stopDebug != nil {
		fmt.Println("\nRun complete; debug endpoint stays up — Ctrl-C to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		stopDebug()
	}
}
