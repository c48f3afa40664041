// Offline dataset: the modular-runtime example — components wired as
// interchangeable plugins over the switchboard's event streams (§II-B).
// A dataset player replays pre-recorded camera+IMU onto topics, the RK4
// integrator consumes the IMU stream synchronously and publishes fast
// poses, and the audio plugin reads the fast-pose topic asynchronously,
// exactly like the live system. The recording is also exported in
// EuRoC-format CSV.
//
//	go run ./examples/offline_dataset
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"illixr/internal/audio"
	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/runtime"
	"illixr/internal/sensors"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Duration = 3
	ds := sensors.GenerateDataset(cfg)

	// export the recording in EuRoC CSV format
	dir, err := os.MkdirTemp("", "illixr-dataset-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "imu0.csv"))
	if err != nil {
		return err
	}
	err = ds.WriteIMUCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exported %d IMU samples to imu0.csv\n", len(ds.IMU))

	// one implementation per role (Table II style); any other plugin
	// speaking the same topics could take its place
	player := &core.DatasetPlayerPlugin{Dataset: ds}
	audioPlugin := &core.AudioPlugin{
		Sources: []audio.Source{
			audio.SpeechLikeSource("lecturer", 48000, 2, audio.DirectionFromAzEl(0.5, 0), 7),
			audio.SineSource("radio", 440, 48000, 2, audio.DirectionFromAzEl(-1.2, 0.2)),
		},
	}
	plugins := []runtime.Plugin{
		player,
		&core.IntegratorPlugin{Initial: integrator.State{
			Pos: ds.Traj.Position(0), Vel: ds.Traj.Velocity(0), Rot: ds.Traj.Orientation(0),
		}},
		audioPlugin,
	}
	loader := runtime.NewLoader()
	defer loader.Shutdown()
	for _, p := range plugins {
		if err := loader.Load(p); err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded plugin %s\n", p.Name())
	}
	sb := loader.Context().Switchboard
	imuTopic, fastTopic := sb.GetTopic(runtime.TopicIMU), sb.GetTopic(runtime.TopicFastPose)
	// the integrator publishes the pose of every burst's last sample:
	// waiting for it makes each block rotate by everything pumped so far
	poses := fastTopic.Subscribe(1)
	defer poses.Cancel()

	// drive virtual time forward in audio-block steps
	blockDt := 1024.0 / 48000.0
	integrated := math.Inf(-1)
	var lastL, lastR []float64
	for t := blockDt; t <= 3; t += blockDt {
		player.PumpUntil(t)
		if ev, ok := imuTopic.Latest(); ok {
			for integrated < ev.T {
				select {
				case pose := <-poses.C:
					integrated = pose.T
				case <-time.After(5 * time.Second):
					return fmt.Errorf("no fast pose for the IMU sample at t=%.3fs", ev.T)
				}
			}
		}
		lastL, lastR = audioPlugin.ProcessBlock(t)
	}
	fmt.Fprintf(w, "topics after playback: %d (imu events: %d)\n", len(sb.Topics()), imuTopic.Seq())
	fmt.Fprintf(w, "final binaural block rms: L=%.4f R=%.4f\n", audio.RMS(lastL), audio.RMS(lastR))

	if ev, ok := fastTopic.Latest(); ok {
		fmt.Fprintf(w, "latest fast pose at t=%.2fs\n", ev.T)
	}
	if err := loader.Shutdown(); err != nil {
		return err
	}
	fmt.Fprintln(w, "plugins stopped cleanly")
	return nil
}
