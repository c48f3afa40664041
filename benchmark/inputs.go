package main

import (
	"illixr/internal/sensors"
)

// The offload sessions stream the paper's tuned sensor mix (Table III).
const (
	imuRateHz = 500.0
	camRateHz = 15.0
	// offloadLoopSec is the length of the generated recording the offload
	// generators cycle through; timestamps keep counting up across laps so
	// the stream stays monotonic however long a run lasts.
	offloadLoopSec = 10
)

// sensorLoop turns a finite generated recording into an endless stream
// with the recording's frame mix and payload sizes.
type sensorLoop struct {
	ds *sensors.Dataset
}

func newSensorLoop(seed int64, seconds float64) *sensorLoop {
	cfg := sensors.DefaultDatasetConfig()
	cfg.Name = "bench"
	cfg.Duration = seconds
	cfg.IMURateHz = imuRateHz
	cfg.CamRateHz = camRateHz
	cfg.Seed = seed
	return &sensorLoop{ds: sensors.GenerateDataset(cfg)}
}

func imuT(i int) float64 { return float64(i) / imuRateHz }
func camT(k int) float64 { return float64(k) / camRateHz }

// imu returns the i-th sample of the endless stream.
func (l *sensorLoop) imu(i int) sensors.IMUSample {
	s := l.ds.IMU[i%len(l.ds.IMU)]
	s.T = imuT(i)
	return s
}

// camera returns the k-th camera frame of the endless stream.
func (l *sensorLoop) camera(k int) sensors.CameraFrame {
	f := l.ds.Frames[k%len(l.ds.Frames)]
	f.Seq, f.T = k, camT(k)
	return f
}
