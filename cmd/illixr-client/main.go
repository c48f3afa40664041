// Command illixr-client is the device end of the edge-offload split: it
// generates a synthetic sensor recording, streams IMU and camera data up
// to an illixr-serve instance, consumes the fast poses coming back, and
// reports pose staleness and wire RTT — the client-visible quality of the
// offloaded pipeline (DESIGN.md §9).
//
// Usage:
//
//	illixr-client -addr localhost:7425 -duration 10
//	illixr-client -addr edge:7425 -seed 7 -speed 2
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"illixr/internal/core"
	"illixr/internal/netxr/node"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:7425", "server address")
	duration := flag.Float64("duration", 10, "recording length in virtual seconds")
	seed := flag.Int64("seed", 42, "dataset seed")
	imuRate := flag.Float64("imu-rate", 500, "IMU rate Hz")
	camRate := flag.Float64("cam-rate", 15, "camera rate Hz")
	app := flag.String("app", "sponza", "application name reported in the handshake")
	speed := flag.Float64("speed", 1, "playback speed vs real time (0 = as fast as possible)")
	record := flag.String("record", "",
		"capture this client's traffic (Hello/Welcome included) into this binlog file "+
			"for later illixr-replay runs (DESIGN.md §13)")
	flag.Parse()

	dcfg := sensors.DefaultDatasetConfig()
	dcfg.Duration = *duration
	dcfg.IMURateHz = *imuRate
	dcfg.CamRateHz = *camRate
	dcfg.Seed = *seed
	ds := sensors.GenerateDataset(dcfg)

	c := &node.Client{
		Addr:   *addr,
		Hello:  wire.Hello{App: *app, Seed: *seed, IMURateHz: *imuRate, CamRateHz: *camRate},
		Record: *record,
	}
	if err := c.Start(); err != nil {
		log.Fatal(err)
	}
	cl := c.Bridge
	fmt.Printf("connected to %s as session %d\n", *addr, cl.Session())
	player := &core.DatasetPlayerPlugin{Dataset: ds}
	if err := c.Loader.Load(player); err != nil {
		log.Fatalf("load %s: %v", player.Name(), err)
	}

	// playback loop: advance virtual time in 50 ms steps, sampling pose
	// staleness (virtual now minus newest downlinked pose time) each step.
	const step = 0.05
	var staleSum, staleMax float64
	var staleN int
	start := time.Now()
	for t := step; t <= *duration; t += step {
		player.PumpUntil(t)
		if *speed > 0 {
			wall := time.Duration(t / *speed * float64(time.Second))
			if d := wall - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
		if poseT, ok := cl.LastPoseT(); ok {
			stale := t - poseT
			staleSum += stale
			staleN++
			if stale > staleMax {
				staleMax = stale
			}
			_ = cl.SendQoE(telemetry.MTPSample{T: t, IMUAge: stale})
		}
		if err := cl.Err(); err != nil {
			log.Fatalf("transport: %v", err)
		}
	}

	var rtt time.Duration
	pingStart := time.Now()
	if _, err := cl.Ping(1, *duration, 2*time.Second); err == nil {
		rtt = time.Since(pingStart)
	}

	fmt.Printf("streamed %d IMU samples, %d camera frames in %.1fs wall\n",
		len(ds.IMU), len(ds.Frames), time.Since(start).Seconds())
	if staleN > 0 {
		fmt.Printf("pose staleness: mean %.1f ms, max %.1f ms (%d samples)\n",
			staleSum/float64(staleN)*1000, staleMax*1000, staleN)
	} else {
		fmt.Println("no poses received")
	}
	if rtt > 0 {
		fmt.Printf("wire RTT: %.2f ms\n", float64(rtt.Microseconds())/1000)
	}
	if why := cl.ByeReason(); why != "" {
		fmt.Printf("server said bye: %s\n", why)
	}
	if err := c.Close(); err != nil {
		log.Fatal(err)
	}
	if *record != "" {
		fmt.Printf("recorded %d frames into %s\n", c.Recorded(), *record)
	}
}
