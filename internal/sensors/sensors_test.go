package sensors

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"illixr/internal/mathx"
)

func TestTrajectoryDerivativesConsistent(t *testing.T) {
	tr := DefaultTrajectory()
	const dt = 1e-6
	for _, tm := range []float64{0.1, 1.7, 5.3, 12.9} {
		// velocity ≈ dp/dt
		numV := tr.Position(tm + dt).Sub(tr.Position(tm - dt)).Scale(1 / (2 * dt))
		anaV := tr.Velocity(tm)
		if numV.Sub(anaV).Norm() > 1e-5 {
			t.Errorf("t=%v: velocity %v vs numeric %v", tm, anaV, numV)
		}
		// acceleration ≈ dv/dt
		numA := tr.Velocity(tm + dt).Sub(tr.Velocity(tm - dt)).Scale(1 / (2 * dt))
		anaA := tr.Acceleration(tm)
		if numA.Sub(anaA).Norm() > 1e-4 {
			t.Errorf("t=%v: accel %v vs numeric %v", tm, anaA, numA)
		}
	}
}

func TestTrajectoryOrientationUnit(t *testing.T) {
	tr := DefaultTrajectory()
	for tm := 0.0; tm < 10; tm += 0.37 {
		q := tr.Orientation(tm)
		if math.Abs(q.Norm()-1) > 1e-9 {
			t.Fatalf("t=%v: |q| = %v", tm, q.Norm())
		}
	}
}

func TestAngularVelocityIntegratesOrientation(t *testing.T) {
	tr := DefaultTrajectory()
	// integrate q with the reported body rates and compare against the
	// analytic orientation after a short interval
	const dt = 1e-3
	q := tr.Orientation(1.0)
	for i := 0; i < 100; i++ {
		tm := 1.0 + float64(i)*dt
		w := tr.AngularVelocityBody(tm + dt/2)
		q = q.Mul(mathx.ExpMap(w.Scale(dt))).Normalized()
	}
	want := tr.Orientation(1.0 + 100*dt)
	if q.AngleTo(want) > 1e-3 {
		t.Errorf("integrated orientation off by %v rad", q.AngleTo(want))
	}
}

func TestIMUStationaryGravity(t *testing.T) {
	// A non-moving trajectory measures +9.81 on the body up-axis.
	tr := &Trajectory{Center: mathx.Vec3{Z: 1}, Radius: 0, RateHz: 0.1, BobAmp: 0}
	imu := NewIMU(tr, IMUNoise{}, 500, 1) // zero noise
	s := imu.Sample(0)
	if s.Gyro.Norm() > 1e-6 {
		t.Errorf("stationary gyro = %v", s.Gyro)
	}
	// body frame equals world frame at yaw=pi/2... orientation is yaw-only;
	// gravity reaction should have magnitude g.
	if math.Abs(s.Accel.Norm()-9.81) > 1e-6 {
		t.Errorf("|accel| = %v, want 9.81", s.Accel.Norm())
	}
}

func TestIMUNoiseStatistics(t *testing.T) {
	tr := &Trajectory{Center: mathx.Vec3{Z: 1}}
	noise := IMUNoise{GyroNoiseDensity: 1e-3, AccelNoiseDensity: 1e-2}
	imu := NewIMU(tr, noise, 100, 7)
	var gyroSq float64
	n := 5000
	for i := 0; i < n; i++ {
		s := imu.Sample(float64(i) / 100)
		gyroSq += s.Gyro.NormSq()
	}
	// expected per-axis sigma = density*sqrt(rate) = 1e-3*10 = 1e-2
	rms := math.Sqrt(gyroSq / float64(3*n))
	if rms < 0.8e-2 || rms > 1.2e-2 {
		t.Errorf("gyro noise rms = %v, want ~1e-2", rms)
	}
}

func TestIMUBiasWalkGrows(t *testing.T) {
	tr := &Trajectory{Center: mathx.Vec3{Z: 1}}
	noise := IMUNoise{GyroBiasWalk: 1e-3}
	imu := NewIMU(tr, noise, 100, 3)
	for i := 0; i < 1000; i++ {
		imu.Sample(float64(i) / 100)
	}
	g, _ := imu.Biases()
	if g.Norm() == 0 {
		t.Error("bias did not walk")
	}
}

func TestCameraProjectUnprojectRoundTrip(t *testing.T) {
	cam := VGACamera()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := mathx.Vec3{
			X: rng.Float64()*2 - 1,
			Y: rng.Float64()*1.5 - 0.75,
			Z: 1 + rng.Float64()*5,
		}
		u, v, ok := cam.Project(p)
		if !ok {
			continue
		}
		back := cam.Unproject(u, v, p.Z)
		if back.Sub(p).Norm() > 1e-6*p.Z {
			t.Fatalf("roundtrip %v -> %v", p, back)
		}
	}
}

func TestCameraBehindRejected(t *testing.T) {
	cam := VGACamera()
	if _, _, ok := cam.Project(mathx.Vec3{Z: -1}); ok {
		t.Error("point behind camera accepted")
	}
}

func TestCameraCenterProjection(t *testing.T) {
	cam := VGACamera()
	u, v, ok := cam.Project(mathx.Vec3{Z: 2})
	if !ok || math.Abs(u-cam.Cx) > 1e-9 || math.Abs(v-cam.Cy) > 1e-9 {
		t.Errorf("axis point projects to (%v,%v)", u, v)
	}
}

func TestCamFromBodyMapsAxes(t *testing.T) {
	q := CamFromBody()
	// body X (forward) should map to camera +Z
	got := q.Rotate(mathx.Vec3{X: 1})
	if got.Sub(mathx.Vec3{Z: 1}).Norm() > 1e-9 {
		t.Errorf("forward -> %v", got)
	}
	// body Z (up) -> camera -Y
	got = q.Rotate(mathx.Vec3{Z: 1})
	if got.Sub(mathx.Vec3{Y: -1}).Norm() > 1e-9 {
		t.Errorf("up -> %v", got)
	}
}

func TestWorldVisibleFeatures(t *testing.T) {
	w := NewRoomWorld(500, 1)
	cam := VGACamera()
	tr := DefaultTrajectory()
	rng := rand.New(rand.NewSource(2))
	feats := w.VisibleFeatures(cam, tr.Pose(0), 0.5, 0, rng)
	if len(feats) < 30 {
		t.Fatalf("only %d features visible", len(feats))
	}
	for _, f := range feats {
		if f.U < 0 || f.V < 0 || f.U >= float64(cam.Width) || f.V >= float64(cam.Height) {
			t.Fatalf("feature out of frame: %+v", f)
		}
	}
	capped := w.VisibleFeatures(cam, tr.Pose(0), 0.5, 20, rng)
	if len(capped) != 20 {
		t.Errorf("cap not honored: %d", len(capped))
	}
}

func TestFeatureIDsStableAcrossFrames(t *testing.T) {
	w := NewRoomWorld(500, 1)
	cam := VGACamera()
	tr := DefaultTrajectory()
	a := w.VisibleFeatures(cam, tr.Pose(0), 0, 0, nil)
	b := w.VisibleFeatures(cam, tr.Pose(0.066), 0, 0, nil)
	ids := map[int]bool{}
	for _, f := range a {
		ids[f.ID] = true
	}
	common := 0
	for _, f := range b {
		if ids[f.ID] {
			common++
		}
	}
	if common < len(a)/2 {
		t.Errorf("only %d/%d features persist between consecutive frames", common, len(a))
	}
}

func TestRenderFeatureImageHasBlobs(t *testing.T) {
	cam := CameraModel{Width: 64, Height: 48, Fx: 32, Fy: 32, Cx: 32, Cy: 24}
	img := RenderFeatureImage(cam, []FeatureObs{{ID: 0, U: 32, V: 24}})
	if img.At(32, 24) < 0.5 {
		t.Errorf("blob center = %v", img.At(32, 24))
	}
	if img.At(5, 40) > 0.3 {
		t.Errorf("background too bright: %v", img.At(5, 40))
	}
}

func TestRenderDepthPlausible(t *testing.T) {
	w := NewRoomWorld(10, 1)
	cam := CameraModel{Width: 32, Height: 24, Fx: 16, Fy: 16, Cx: 16, Cy: 12}
	tr := DefaultTrajectory()
	depth, rgb := w.RenderDepth(cam, tr.Pose(0))
	hits := 0
	for _, d := range depth.Pix {
		if d > 0 {
			hits++
			if d > 20 {
				t.Fatalf("depth %v exceeds room size", d)
			}
		}
	}
	if hits < len(depth.Pix)*9/10 {
		t.Errorf("only %d/%d pixels hit geometry", hits, len(depth.Pix))
	}
	// shading should be non-trivial
	if rgb.Luminance().Mean() <= 0 {
		t.Error("black render")
	}
}

func TestGenerateDatasetShapes(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Duration = 2
	ds := GenerateDataset(cfg)
	if len(ds.IMU) != int(2*cfg.IMURateHz)+1 {
		t.Errorf("imu samples = %d", len(ds.IMU))
	}
	if len(ds.Frames) != int(2*cfg.CamRateHz)+1 {
		t.Errorf("frames = %d", len(ds.Frames))
	}
	if len(ds.GroundTruth) != len(ds.IMU) {
		t.Errorf("gt samples = %d", len(ds.GroundTruth))
	}
}

func TestDatasetDeterminism(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Duration = 1
	a := GenerateDataset(cfg)
	b := GenerateDataset(cfg)
	for i := range a.IMU {
		if a.IMU[i] != b.IMU[i] {
			t.Fatal("IMU stream not deterministic")
		}
	}
	for i := range a.Frames {
		if len(a.Frames[i].Features) != len(b.Frames[i].Features) {
			t.Fatal("frames not deterministic")
		}
	}
}

func TestGroundTruthInterpolation(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Duration = 1
	ds := GenerateDataset(cfg)
	// mid-sample query should be close to the true trajectory
	p := ds.GroundTruthAt(0.5005)
	want := ds.Traj.Pose(0.5005)
	if p.TranslationDistance(want) > 1e-4 {
		t.Errorf("interp error %v", p.TranslationDistance(want))
	}
	// clamping
	if ds.GroundTruthAt(-5) != ds.GroundTruth[0].Pose {
		t.Error("pre-start clamp")
	}
}

func TestIMUCSVRoundTrip(t *testing.T) {
	cfg := DefaultDatasetConfig()
	cfg.Duration = 0.1
	ds := GenerateDataset(cfg)
	var buf bytes.Buffer
	if err := ds.WriteIMUCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ds.IMU)+1 || rows[0][0] != "#timestamp_ns" {
		t.Fatalf("%d rows for %d samples, header %q", len(rows), len(ds.IMU), rows[0])
	}
	for i, row := range rows[1:] {
		ns, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(ns)/1e9-ds.IMU[i].T) > 1e-8 {
			t.Fatalf("sample %d time mismatch", i)
		}
		for k, want := range []float64{ds.IMU[i].Gyro.X, ds.IMU[i].Gyro.Y, ds.IMU[i].Gyro.Z} {
			if got, err := strconv.ParseFloat(row[1+k], 64); err != nil || got != want {
				t.Fatalf("sample %d gyro[%d] = %q, want %v", i, k, row[1+k], want)
			}
		}
	}
}

// BenchmarkGenerateDataset synthesizes a 25-second recording at the
// paper's tuned rates (500 Hz IMU, 15 Hz camera), as one live set-up does.
func BenchmarkGenerateDataset(b *testing.B) {
	cfg := DefaultDatasetConfig()
	cfg.Duration = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDataset = GenerateDataset(cfg)
	}
}

var sinkDataset *Dataset

// Biases returns the current (true) bias state, useful for tests.
func (imu *IMU) Biases() (gyro, accel mathx.Vec3) { return imu.gyroBias, imu.accelBias }
