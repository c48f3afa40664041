package sensors

import (
	"illixr/internal/mathx"
)

// CameraModel is a pinhole camera with two-parameter radial distortion
// (the same model the ZED SDK exposes after rectification, plus residual
// distortion terms for realism).
type CameraModel struct {
	Width, Height  int
	Fx, Fy, Cx, Cy float64
	K1, K2         float64 // radial distortion coefficients
}

// VGACamera returns the paper's tuned camera configuration (Table III:
// VGA resolution for the perception pipeline), with a ~90° horizontal FoV.
func VGACamera() CameraModel {
	return CameraModel{
		Width: 640, Height: 480,
		Fx: 320, Fy: 320, Cx: 320, Cy: 240,
		K1: -0.05, K2: 0.01,
	}
}

// Project maps a camera-frame 3D point (Z forward, X right, Y down) to
// pixel coordinates. ok is false when the point is behind the camera or
// projects outside the image.
func (c CameraModel) Project(p mathx.Vec3) (u, v float64, ok bool) {
	if p.Z <= 1e-6 {
		return 0, 0, false
	}
	xn := p.X / p.Z
	yn := p.Y / p.Z
	r2 := xn*xn + yn*yn
	d := 1 + c.K1*r2 + c.K2*r2*r2
	u = c.Fx*xn*d + c.Cx
	v = c.Fy*yn*d + c.Cy
	ok = u >= 0 && v >= 0 && u < float64(c.Width) && v < float64(c.Height)
	return u, v, ok
}

// Unproject maps pixel coordinates and depth to a camera-frame point,
// iteratively inverting the radial distortion.
func (c CameraModel) Unproject(u, v, depth float64) mathx.Vec3 {
	xd := (u - c.Cx) / c.Fx
	yd := (v - c.Cy) / c.Fy
	// fixed-point iteration to undo distortion
	xn, yn := xd, yd
	for i := 0; i < 8; i++ {
		r2 := xn*xn + yn*yn
		d := 1 + c.K1*r2 + c.K2*r2*r2
		xn = xd / d
		yn = yd / d
	}
	return mathx.Vec3{X: xn * depth, Y: yn * depth, Z: depth}
}

// normalizedRay returns the unit ray through pixel (u, v).
func (c CameraModel) normalizedRay(u, v float64) mathx.Vec3 {
	p := c.Unproject(u, v, 1)
	return p.Normalized()
}

// camFromBody is CamFromBody's value, derived once: the columns of R map
// body axes to camera axes — body X (forward) -> camera Z; body Y (left)
// -> camera -X; body Z (up) -> camera -Y.
var camFromBody = mathx.Mat3{
	0, -1, 0,
	0, 0, -1,
	1, 0, 0,
}.Quat()

// CamFromBody is the fixed transform from the body/IMU frame to the camera
// frame used throughout ILLIXR-Go. The body frame is X-forward, Y-left,
// Z-up (robotics convention); the camera frame is Z-forward, X-right,
// Y-down (vision convention).
func CamFromBody() mathx.Quat { return camFromBody }

// WorldPointToCam converts a world point into the camera frame given the
// body pose in the world.
func WorldPointToCam(bodyPose mathx.Pose, pw mathx.Vec3) mathx.Vec3 {
	return camFromBody.Rotate(bodyPose.Inverse().Apply(pw))
}
