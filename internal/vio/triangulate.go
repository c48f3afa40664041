package vio

import (
	"math"

	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

// camRay converts a normalized observation into a world-frame ray from the
// camera center, given the body pose of the clone that saw it.
func camRay(body mathx.Pose, xn, yn float64) (origin, dir mathx.Vec3) {
	dCam := mathx.Vec3{X: xn, Y: yn, Z: 1}.Normalized()
	dBody := sensors.CamFromBody().Inverse().Rotate(dCam)
	return body.Pos, body.ApplyDir(dBody)
}

// triangulateLinear solves the least-squares intersection of the
// observation rays: argmin_p Σ ‖(I − dᵢdᵢᵀ)(p − oᵢ)‖². Returns ok=false
// when the system is degenerate (insufficient parallax).
func triangulateLinear(poses []mathx.Pose, obs []featureObs) (mathx.Vec3, bool) {
	if len(poses) != len(obs) || len(obs) < 2 {
		return mathx.Vec3{}, false
	}
	var a mathx.Mat3
	var b mathx.Vec3
	for i := range obs {
		o, d := camRay(poses[i], obs[i].XN, obs[i].YN)
		// M = I - d dᵀ
		m := mathx.Mat3Identity()
		dd := mathx.Mat3{
			d.X * d.X, d.X * d.Y, d.X * d.Z,
			d.Y * d.X, d.Y * d.Y, d.Y * d.Z,
			d.Z * d.X, d.Z * d.Y, d.Z * d.Z,
		}
		for k := range m {
			m[k] -= dd[k]
		}
		a = a.Add(m)
		b = b.Add(m.MulVec(o))
	}
	inv, ok := a.Inverse()
	if !ok {
		return mathx.Vec3{}, false
	}
	if math.Abs(a.Det()) < 1e-6 {
		return mathx.Vec3{}, false // near-degenerate: rays almost parallel
	}
	return inv.MulVec(b), true
}

// projectToClone projects a world point into the normalized image plane of
// a clone. ok=false if the point is behind the camera.
func projectToClone(body mathx.Pose, pw mathx.Vec3) (xn, yn float64, ok bool) {
	pc := sensors.WorldPointToCam(body, pw)
	if pc.Z < 1e-6 {
		return 0, 0, false
	}
	return pc.X / pc.Z, pc.Y / pc.Z, true
}

// triangulateGN refines a linear triangulation with Gauss-Newton on the
// reprojection error, its normal equations in the caller's arena. Returns
// the refined point, the mean residual (in normalized units), and ok.
func triangulateGN(a *mathx.Arena, poses []mathx.Pose, obs []featureObs, maxIter int) (mathx.Vec3, float64, bool) {
	p, ok := triangulateLinear(poses, obs)
	if !ok {
		return mathx.Vec3{}, 0, false
	}
	lambda := 1e-6
	jtj := a.Mat(3, 3)
	jtr, dx := a.Vec(3), a.Vec(3)
	for iter := 0; iter < maxIter; iter++ {
		// accumulate JᵀJ and Jᵀr
		clear(jtj.Data)
		clear(jtr)
		cost := 0.0
		valid := 0
		for i := range obs {
			pc := sensors.WorldPointToCam(poses[i], p)
			if pc.Z < 1e-6 {
				continue
			}
			valid++
			rx := obs[i].XN - pc.X/pc.Z
			ry := obs[i].YN - pc.Y/pc.Z
			cost += rx*rx + ry*ry
			// ∂pc/∂pw = R_cb · R_wbᵀ
			rcw := sensors.CamFromBody().RotationMatrix().Mul(
				poses[i].Rot.RotationMatrix().Transpose())
			// ∂(x/z, y/z)/∂pc
			invZ := 1 / pc.Z
			j00 := invZ
			j02 := -pc.X * invZ * invZ
			j11 := invZ
			j12 := -pc.Y * invZ * invZ
			// Row r of J (2x3) = d(proj)/dpc * rcw
			for c := 0; c < 3; c++ {
				jx := j00*rcw.At(0, c) + j02*rcw.At(2, c)
				jy := j11*rcw.At(1, c) + j12*rcw.At(2, c)
				jtr[c] += jx*rx + jy*ry
				for c2 := 0; c2 < 3; c2++ {
					jx2 := j00*rcw.At(0, c2) + j02*rcw.At(2, c2)
					jy2 := j11*rcw.At(1, c2) + j12*rcw.At(2, c2)
					jtj.Set(c, c2, jtj.At(c, c2)+jx*jx2+jy*jy2)
				}
			}
		}
		if valid < 2 {
			return mathx.Vec3{}, 0, false
		}
		for d := 0; d < 3; d++ {
			jtj.Set(d, d, jtj.At(d, d)*(1+lambda))
		}
		if !jtj.CholeskySolveInto(dx, jtr, a) {
			break
		}
		p = p.Add(mathx.Vec3{X: dx[0], Y: dx[1], Z: dx[2]})
		if math.Sqrt(dx[0]*dx[0]+dx[1]*dx[1]+dx[2]*dx[2]) < 1e-8 {
			break
		}
	}
	// final residual and cheirality check
	sum := 0.0
	n := 0
	for i := range obs {
		xn, yn, okP := projectToClone(poses[i], p)
		if !okP {
			return mathx.Vec3{}, 0, false
		}
		dx := obs[i].XN - xn
		dy := obs[i].YN - yn
		sum += math.Hypot(dx, dy)
		n++
	}
	if n == 0 {
		return mathx.Vec3{}, 0, false
	}
	return p, sum / float64(n), true
}
