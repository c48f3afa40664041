package vio

import (
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/sensors"
)

const imuDim = 15 // [δθ(3) δbg(3) δv(3) δba(3) δp(3)]

// clone is one stochastic clone of the body pose in the sliding window.
type clone struct {
	ID   int
	T    float64
	Pose mathx.Pose
}

// slamFeat is a long-lived landmark kept in the filter state.
type slamFeat struct {
	ID  int
	Pos mathx.Vec3
}

// Filter is the MSCKF visual-inertial estimator.
type Filter struct {
	P     Params
	Noise sensors.IMUNoise

	// nominal state
	t   float64
	rot mathx.Quat
	pos mathx.Vec3
	vel mathx.Vec3
	bg  mathx.Vec3
	ba  mathx.Vec3

	clones []clone
	slam   []slamFeat
	// cov is the error-state covariance; covSpare is the buffer the next
	// covariance of a different shape (or a full rewrite) is built in before
	// the two swap. Both are the filter's own memory, grown to the largest
	// state dimension seen: the covariance outlives every arena cycle.
	cov, covSpare *mathx.Mat

	tracks      map[int]*track
	nextCloneID int

	// arena holds every matrix temporary of one propagation step or one
	// update stage. Nothing taken from it may be stored on the filter.
	arena mathx.Arena
	// per-frame scratch kept across frames: the set of feature ids seen in
	// this frame, the candidate tracks of an update stage, and the clone
	// poses and window indices of one track's observations.
	live      map[int]bool
	cands     []*track
	poses     []mathx.Pose
	cloneIdxs []int

	// lastIMU is the most recent sample seen, used to bridge batch
	// boundaries and extrapolate to frame timestamps.
	lastIMU sensors.IMUSample
	hasIMU  bool

	stats FrameStats
}

// NewFilter creates a filter initialized at the given state with small
// initial uncertainty (ILLIXR initializes VIO during a static period, so
// the initial pose is well known).
func NewFilter(p Params, noise sensors.IMUNoise, init integrator.State) *Filter {
	f := &Filter{
		P:      p,
		Noise:  noise,
		t:      init.T,
		rot:    init.Rot,
		pos:    init.Pos,
		vel:    init.Vel,
		bg:     init.BiasG,
		ba:     init.BiasA,
		tracks: map[int]*track{},
		live:   map[int]bool{},
	}
	f.cov, f.covSpare = mathx.NewMat(imuDim, imuDim), mathx.NewMat(0, 0)
	for i := 0; i < 3; i++ {
		f.cov.Set(i, i, 1e-6)       // orientation
		f.cov.Set(3+i, 3+i, 1e-4)   // gyro bias
		f.cov.Set(6+i, 6+i, 1e-4)   // velocity
		f.cov.Set(9+i, 9+i, 1e-2)   // accel bias
		f.cov.Set(12+i, 12+i, 1e-6) // position
	}
	return f
}

// dim returns the current error-state dimension.
func (f *Filter) dim() int { return imuDim + 6*len(f.clones) + 3*len(f.slam) }

func (f *Filter) cloneIndex(id int) int {
	for i, c := range f.clones {
		if c.ID == id {
			return i
		}
	}
	return -1
}

func (f *Filter) slamOffset() int { return imuDim + 6*len(f.clones) }

// nextCov returns the spare covariance buffer shaped n×n and zeroed, for
// the caller to fill and then install with swapCov.
func (f *Filter) nextCov(n int) *mathx.Mat {
	m := f.covSpare
	if cap(m.Data) < n*n {
		m.Data = make([]float64, n*n)
	}
	m.Rows, m.Cols, m.Data = n, n, m.Data[:n*n]
	clear(m.Data)
	return m
}

// swapCov installs the buffer nextCov handed out as the covariance.
func (f *Filter) swapCov() { f.cov, f.covSpare = f.covSpare, f.cov }

// pose returns the current pose estimate.
func (f *Filter) pose() mathx.Pose { return mathx.Pose{Pos: f.pos, Rot: f.rot} }

// propagate advances nominal state and covariance through one IMU step.
func (f *Filter) propagate(prev, cur sensors.IMUSample) {
	dt := cur.T - prev.T
	if dt <= 0 {
		return
	}
	// nominal: RK4 on the full inertial state
	st := integrator.RK4Step(integrator.State{
		T: f.t, Pos: f.pos, Vel: f.vel, Rot: f.rot, BiasG: f.bg, BiasA: f.ba,
	}, prev, cur)
	// error-state transition Φ = I + F dt (first order), evaluated at the
	// pre-step estimate.
	wHat := prev.Gyro.Sub(f.bg)
	aHat := prev.Accel.Sub(f.ba)
	r := f.rot.RotationMatrix()

	a := &f.arena
	a.Reset()
	n := f.dim()
	phiI := a.Mat(imuDim, imuDim)
	phiI.SetIdentity()
	// δθ̇ = -[ω]ₓ δθ - δbg
	sw := mathx.Skew(wHat).Scale(-dt)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			phiI.Set(i, j, phiI.At(i, j)+sw[3*i+j])
			phiI.Set(i, 3+j, phiI.At(i, 3+j)-dt*b2f(i == j))
		}
	}
	// δv̇ = -R[a]ₓ δθ - R δba
	rska := r.Mul(mathx.Skew(aHat)).Scale(-dt)
	rdt := r.Scale(-dt)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			phiI.Set(6+i, j, phiI.At(6+i, j)+rska[3*i+j])
			phiI.Set(6+i, 9+j, phiI.At(6+i, 9+j)+rdt[3*i+j])
		}
	}
	// δṗ = δv
	for i := 0; i < 3; i++ {
		phiI.Set(12+i, 6+i, phiI.At(12+i, 6+i)+dt)
	}

	// P_II ← Φ P_II Φᵀ + Q ; P_IX ← Φ P_IX (X = clones+slam)
	pII := a.Mat(imuDim, imuDim)
	f.cov.BlockInto(pII, 0, 0)
	phiP := a.Mat(imuDim, imuDim)
	phiI.MulMatInto(phiP, pII)
	phiT := a.Mat(imuDim, imuDim)
	phiI.TInto(phiT)
	newPII := a.Mat(imuDim, imuDim)
	phiP.MulMatInto(newPII, phiT)
	// discrete process noise
	qg := f.Noise.GyroNoiseDensity * f.Noise.GyroNoiseDensity * dt
	qbg := f.Noise.GyroBiasWalk * f.Noise.GyroBiasWalk * dt
	qa := f.Noise.AccelNoiseDensity * f.Noise.AccelNoiseDensity * dt
	qba := f.Noise.AccelBiasWalk * f.Noise.AccelBiasWalk * dt
	for i := 0; i < 3; i++ {
		newPII.Set(i, i, newPII.At(i, i)+qg)
		newPII.Set(3+i, 3+i, newPII.At(3+i, 3+i)+qbg)
		newPII.Set(6+i, 6+i, newPII.At(6+i, 6+i)+qa)
		newPII.Set(9+i, 9+i, newPII.At(9+i, 9+i)+qba)
	}
	f.cov.SetBlock(0, 0, newPII)
	if n > imuDim {
		pIX := a.Mat(imuDim, n-imuDim)
		f.cov.BlockInto(pIX, 0, imuDim)
		newPIX := a.Mat(imuDim, n-imuDim)
		phiI.MulMatInto(newPIX, pIX)
		f.cov.SetBlock(0, imuDim, newPIX)
		newPXI := a.Mat(n-imuDim, imuDim)
		newPIX.TInto(newPXI)
		f.cov.SetBlock(imuDim, 0, newPXI)
	}
	f.cov.Symmetrize()

	f.t = st.T
	f.rot = st.Rot
	f.pos = st.Pos
	f.vel = st.Vel
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// augmentClone appends the current pose as a new stochastic clone.
func (f *Filter) augmentClone() {
	n := f.dim()
	newCov := f.nextCov(n + 6)
	// layout: [imu | clones... | NEW CLONE | slam]
	// Build J: rows of the new clone error w.r.t. old state:
	// δθ_c = δθ (imu 0..2), δp_c = δp (imu 12..14)
	oldCloneEnd := imuDim + 6*len(f.clones)
	// copy existing blocks, shifting slam block by +6
	for r := 0; r < n; r++ {
		rn := r
		if r >= oldCloneEnd {
			rn = r + 6
		}
		for c := 0; c < n; c++ {
			cn := c
			if c >= oldCloneEnd {
				cn = c + 6
			}
			newCov.Set(rn, cn, f.cov.At(r, c))
		}
	}
	// cross terms: row block of new clone = J P, where J picks rows 0..2
	// and 12..14 of the IMU block.
	pick := [6]int{0, 1, 2, 12, 13, 14}
	for i, src := range pick {
		for c := 0; c < n; c++ {
			cn := c
			if c >= oldCloneEnd {
				cn = c + 6
			}
			newCov.Set(oldCloneEnd+i, cn, f.cov.At(src, c))
			newCov.Set(cn, oldCloneEnd+i, f.cov.At(c, src))
		}
	}
	for i, ri := range pick {
		for j, cj := range pick {
			newCov.Set(oldCloneEnd+i, oldCloneEnd+j, f.cov.At(ri, cj))
		}
	}
	f.swapCov()
	f.clones = append(f.clones, clone{ID: f.nextCloneID, T: f.t, Pose: f.pose()})
	f.nextCloneID++
}

// marginalizeOldest removes the oldest clone from the state and covariance
// and strips its observations from all tracks.
func (f *Filter) marginalizeOldest() {
	if len(f.clones) == 0 {
		return
	}
	removed := f.clones[0]
	f.removeRange(imuDim, 6) // oldest clone sits first in the clone block
	// shift down rather than reslice, so appending the next clone reuses
	// the array
	f.clones = f.clones[:copy(f.clones, f.clones[1:])]
	for id, tr := range f.tracks {
		kept := tr.Obs[:0]
		for _, o := range tr.Obs {
			if o.CloneID != removed.ID {
				kept = append(kept, o)
			}
		}
		tr.Obs = kept
		if len(tr.Obs) == 0 && !tr.InState {
			delete(f.tracks, id)
		}
	}
	f.stats.MarginalizedOps++
}

// removeRange deletes `count` consecutive rows and columns starting at
// `start` from the covariance.
func (f *Filter) removeRange(start, count int) {
	m := f.cov
	n := m.Rows
	out := f.nextCov(n - count)
	for r, ro := 0, 0; r < n; r++ {
		if r >= start && r < start+count {
			continue
		}
		for c, co := 0, 0; c < n; c++ {
			if c >= start && c < start+count {
				continue
			}
			out.Set(ro, co, m.At(r, c))
			co++
		}
		ro++
	}
	f.swapCov()
}

// obsJacobian computes the residual and Jacobian blocks of one observation
// of a world point pf seen from clone ci.
// Returns: residual (2), H_clone (2x6 over [δθ_c, δp_c]), H_f (2x3), ok.
func (f *Filter) obsJacobian(ci int, pf mathx.Vec3, o featureObs) (r [2]float64, hc [2][6]float64, hf [2][3]float64, ok bool) {
	cl := f.clones[ci]
	rwb := cl.Pose.Rot.RotationMatrix()
	rcb := sensors.CamFromBody().RotationMatrix()
	pb := cl.Pose.Rot.Inverse().Rotate(pf.Sub(cl.Pose.Pos))
	pc := sensors.CamFromBody().Rotate(pb)
	if pc.Z < 1e-4 {
		return r, hc, hf, false
	}
	invZ := 1 / pc.Z
	r[0] = o.XN - pc.X*invZ
	r[1] = o.YN - pc.Y*invZ
	// dh/dpc (2x3)
	dh := [2][3]float64{
		{invZ, 0, -pc.X * invZ * invZ},
		{0, invZ, -pc.Y * invZ * invZ},
	}
	// dpc/dδθ = R_cb [p_b]ₓ
	dpcTheta := rcb.Mul(mathx.Skew(pb))
	// dpc/dδp = -R_cb R_wbᵀ ; dpc/dpf = +R_cb R_wbᵀ
	dpcP := rcb.Mul(rwb.Transpose()).Scale(-1)
	for row := 0; row < 2; row++ {
		for c := 0; c < 3; c++ {
			var sTheta, sP float64
			for k := 0; k < 3; k++ {
				sTheta += dh[row][k] * dpcTheta.At(k, c)
				sP += dh[row][k] * dpcP.At(k, c)
			}
			hc[row][c] = sTheta
			hc[row][3+c] = sP
			hf[row][c] = -sP // dpc/dpf = -dpc/dδp
		}
	}
	return r, hc, hf, true
}

// ekfUpdate applies a standard EKF update with measurement Jacobian h
// (m×dim), residual r (m) and isotropic noise sigma². QR compression is
// applied when m exceeds the state dimension. h and r may be the calling
// stage's arena memory: the arena is not reset here.
func (f *Filter) ekfUpdate(h *mathx.Mat, r []float64, sigma2 float64) bool {
	n := f.dim()
	if h.Cols != n || len(r) != h.Rows {
		panic("vio: ekfUpdate shape mismatch")
	}
	if h.Rows == 0 {
		return false
	}
	a := &f.arena
	// QR compression: H = Q1 R1; equivalent update uses R1, Q1ᵀ r.
	if h.Rows > n {
		q, rr := a.Mat(h.Rows, n), a.Mat(n, n)
		h.QRInto(q, rr, a)
		qT := a.Mat(n, h.Rows)
		q.TInto(qT)
		newR := a.Vec(n)
		qT.MulVecNInto(newR, r)
		h = rr
		r = newR
	}
	m := h.Rows
	// S = H P Hᵀ + σ² I
	hT := a.Mat(n, m)
	h.TInto(hT)
	ph := a.Mat(n, m)
	f.cov.MulMatInto(ph, hT)
	s := a.Mat(m, m)
	h.MulMatInto(s, ph)
	for i := 0; i < m; i++ {
		s.Set(i, i, s.At(i, i)+sigma2)
	}
	// K = P Hᵀ S⁻¹ → solve Sᵀ Kᵀ = (P Hᵀ)ᵀ; S symmetric.
	phT := a.Mat(m, n)
	ph.TInto(phT)
	kT := a.Mat(m, n)
	if !s.CholeskySolveMatInto(kT, phT, a) {
		return false
	}
	k := a.Mat(n, m)
	kT.TInto(k)
	dx := a.Vec(n)
	k.MulVecNInto(dx, r)
	// Joseph-form covariance update
	ikh := a.Mat(n, n)
	ikh.SetIdentity()
	kh := a.Mat(n, n)
	k.MulMatInto(kh, h)
	for i := range ikh.Data {
		ikh.Data[i] -= kh.Data[i]
	}
	ikhP := a.Mat(n, n)
	ikh.MulMatInto(ikhP, f.cov)
	ikhT := a.Mat(n, n)
	ikh.TInto(ikhT)
	newP := f.nextCov(n)
	ikhP.MulMatInto(newP, ikhT)
	kkT := a.Mat(n, n)
	k.MulMatInto(kkT, kT)
	kkT.ScaleInPlace(sigma2)
	newP.AddInPlace(kkT)
	newP.Symmetrize()
	f.swapCov()
	f.inject(dx)
	return true
}

// inject applies the error-state correction to the nominal state.
func (f *Filter) inject(dx []float64) {
	dth := mathx.Vec3{X: dx[0], Y: dx[1], Z: dx[2]}
	f.rot = f.rot.Mul(mathx.ExpMap(dth)).Normalized()
	f.bg = f.bg.Add(mathx.Vec3{X: dx[3], Y: dx[4], Z: dx[5]})
	f.vel = f.vel.Add(mathx.Vec3{X: dx[6], Y: dx[7], Z: dx[8]})
	f.ba = f.ba.Add(mathx.Vec3{X: dx[9], Y: dx[10], Z: dx[11]})
	f.pos = f.pos.Add(mathx.Vec3{X: dx[12], Y: dx[13], Z: dx[14]})
	for i := range f.clones {
		off := imuDim + 6*i
		cdth := mathx.Vec3{X: dx[off], Y: dx[off+1], Z: dx[off+2]}
		f.clones[i].Pose.Rot = f.clones[i].Pose.Rot.Mul(mathx.ExpMap(cdth)).Normalized()
		f.clones[i].Pose.Pos = f.clones[i].Pose.Pos.Add(
			mathx.Vec3{X: dx[off+3], Y: dx[off+4], Z: dx[off+5]})
	}
	so := f.slamOffset()
	for i := range f.slam {
		off := so + 3*i
		f.slam[i].Pos = f.slam[i].Pos.Add(
			mathx.Vec3{X: dx[off], Y: dx[off+1], Z: dx[off+2]})
	}
}
