package sensors

import (
	"math"
	"math/rand"

	"illixr/internal/mathx"
)

// Gravity is the world-frame gravity vector (Z up).
var Gravity = mathx.Vec3{Z: -9.81}

// IMUSample is one inertial measurement: body-frame angular velocity
// (rad/s) and specific force (m/s²) at time T (seconds).
type IMUSample struct {
	T     float64
	Gyro  mathx.Vec3
	Accel mathx.Vec3
}

// IMUNoise holds the continuous-time noise densities of the IMU model,
// matching the parameterization used by OpenVINS/EuRoC calibration files.
type IMUNoise struct {
	GyroNoiseDensity  float64 // rad/s/√Hz
	AccelNoiseDensity float64 // m/s²/√Hz
	GyroBiasWalk      float64 // rad/s²/√Hz
	AccelBiasWalk     float64 // m/s³/√Hz
}

// DefaultIMUNoise matches a consumer MEMS IMU (ZED-Mini class).
func DefaultIMUNoise() IMUNoise {
	return IMUNoise{
		GyroNoiseDensity:  1.7e-4,
		AccelNoiseDensity: 2.0e-3,
		GyroBiasWalk:      2.0e-5,
		AccelBiasWalk:     3.0e-3,
	}
}

// IMU simulates an inertial measurement unit following a Trajectory.
type IMU struct {
	Traj      *Trajectory
	Noise     IMUNoise
	RateHz    float64
	gyroBias  mathx.Vec3
	accelBias mathx.Vec3
	rng       *rand.Rand
}

// NewIMU creates an IMU sampling the trajectory at rateHz with the given
// noise model and deterministic seed.
func NewIMU(traj *Trajectory, noise IMUNoise, rateHz float64, seed int64) *IMU {
	return &IMU{
		Traj:   traj,
		Noise:  noise,
		RateHz: rateHz,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Sample produces the measurement at time t and advances the bias random
// walk by one sample period. Samples should be requested in time order.
func (imu *IMU) Sample(t float64) IMUSample {
	_, gyro, accel := imu.truth(t)
	return imu.measure(IMUSample{T: t, Gyro: gyro, Accel: accel})
}

// truth is the noise-free kinematics at time t: the orientation, the
// body-frame angular velocity and the body-frame specific force (what an
// accelerometer measures). It draws nothing, so any goroutine may compute
// it for any t.
func (imu *IMU) truth(t float64) (q mathx.Quat, wBody, fBody mathx.Vec3) {
	q = imu.Traj.Orientation(t)
	wBody = imu.Traj.AngularVelocityBody(t)
	aWorld := imu.Traj.Acceleration(t)
	fBody = q.Inverse().Rotate(aWorld.Sub(Gravity))
	return q, wBody, fBody
}

// measure turns a noise-free sample into a measurement: bias plus white
// noise, then one sample period of bias random walk. It makes four draws
// in a fixed order, so samples must be measured in time order.
func (imu *IMU) measure(s IMUSample) IMUSample {
	dt := 1 / imu.RateHz
	sqrtRate := 1 / math.Sqrt(dt) // discrete noise sigma = density * sqrt(rate)

	s.Gyro = s.Gyro.Add(imu.gyroBias).Add(imu.gaussVec(imu.Noise.GyroNoiseDensity * sqrtRate))
	s.Accel = s.Accel.Add(imu.accelBias).Add(imu.gaussVec(imu.Noise.AccelNoiseDensity * sqrtRate))

	// advance bias random walk
	imu.gyroBias = imu.gyroBias.Add(imu.gaussVec(imu.Noise.GyroBiasWalk * math.Sqrt(dt)))
	imu.accelBias = imu.accelBias.Add(imu.gaussVec(imu.Noise.AccelBiasWalk * math.Sqrt(dt)))
	return s
}

func (imu *IMU) gaussVec(sigma float64) mathx.Vec3 {
	return mathx.Vec3{
		X: imu.rng.NormFloat64() * sigma,
		Y: imu.rng.NormFloat64() * sigma,
		Z: imu.rng.NormFloat64() * sigma,
	}
}
