package vio

import (
	"cmp"
	"slices"

	"illixr/internal/mathx"
)

// ProcessFrame runs one full VIO iteration: IMU propagation, clone
// augmentation, track maintenance, MSCKF and SLAM updates, SLAM promotion
// and marginalization. It returns the new estimate with work statistics.
func (f *Filter) ProcessFrame(in FrameInput) Estimate {
	f.stats = FrameStats{T: in.T}

	// 1) propagate through the buffered IMU. Each step integrates exactly
	//    from the filter's current time to the sample time (covering batch
	//    boundaries), and the last sample is extrapolated so the state
	//    lands exactly on the frame timestamp: the clone must be
	//    time-aligned with the measurements.
	for _, cur := range in.IMU {
		if cur.T <= f.t+1e-12 {
			f.lastIMU, f.hasIMU = cur, true
			continue
		}
		prev := cur
		if f.hasIMU {
			prev = f.lastIMU
		}
		prev.T = f.t
		f.propagate(prev, cur)
		f.lastIMU, f.hasIMU = cur, true
	}
	if f.hasIMU && in.T > f.t+1e-12 {
		prev := f.lastIMU
		prev.T = f.t
		virtual := f.lastIMU
		virtual.T = in.T
		f.propagate(prev, virtual)
	}
	f.t = in.T

	// 2) stochastic cloning of the current pose
	f.augmentClone()
	curClone := f.clones[len(f.clones)-1].ID

	// 3) track bookkeeping (the front end already associated features)
	live := f.live
	clear(live)
	for _, tf := range in.Features {
		live[tf.ID] = true
		tr, ok := f.tracks[tf.ID]
		if !ok {
			// a track holds at most one observation per clone in the window
			tr = &track{FeatureID: tf.ID, Obs: make([]featureObs, 0, f.P.MaxClones+1)}
			f.tracks[tf.ID] = tr
			f.stats.DetectedFeatures++
		} else {
			f.stats.TrackedFeatures++
		}
		tr.Obs = append(tr.Obs, featureObs{CloneID: curClone, XN: tf.XN, YN: tf.YN})
	}

	// 4) SLAM update: state features observed in this frame, then prune
	//    state features that left the field of view
	f.slamUpdate(live, curClone)
	f.pruneSLAM(live)

	// 5) MSCKF update: tracks that just died with enough observations, or
	//    tracks about to lose their oldest observation to marginalization.
	f.msckfUpdate(live)

	// 6) promote long, still-alive tracks to SLAM features
	f.promoteSLAM(live)

	// 7) window management
	for len(f.clones) > f.P.MaxClones {
		f.marginalizeOldest()
	}

	f.stats.StateDim = f.dim()
	return Estimate{
		T: f.t, Pose: f.pose(), Vel: f.vel, BiasG: f.bg, BiasA: f.ba,
		Stats: f.stats,
	}
}

// clonePoses gathers the poses and window indices for a track's
// observations, valid until the next call. Returns nil if any observation
// references a clone no longer in the window.
func (f *Filter) clonePoses(tr *track) ([]mathx.Pose, []int) {
	f.poses, f.cloneIdxs = f.poses[:0], f.cloneIdxs[:0]
	for _, o := range tr.Obs {
		ci := f.cloneIndex(o.CloneID)
		if ci < 0 {
			return nil, nil
		}
		f.poses = append(f.poses, f.clones[ci].Pose)
		f.cloneIdxs = append(f.cloneIdxs, ci)
	}
	return f.poses, f.cloneIdxs
}

// longestFirst orders candidate tracks by observation count, longest
// first, then by feature id: a total order, so any sort gives one result.
func longestFirst(a, b *track) int {
	if c := cmp.Compare(len(b.Obs), len(a.Obs)); c != 0 {
		return c
	}
	return cmp.Compare(a.FeatureID, b.FeatureID)
}

// featureRows is the height of a track's nullspace-projected Jacobian when
// every observation is usable.
func featureRows(tr *track) int { return max(2*len(tr.Obs)-3, 0) }

// msckfUpdate triangulates dead tracks and applies the nullspace-projected
// MSCKF measurement update.
func (f *Filter) msckfUpdate(live map[int]bool) {
	sigma := f.P.PixelNoise / 320.0 // normalized-plane noise (fx=320)
	sigma2 := sigma * sigma

	// Collect candidate tracks: dead, not SLAM, enough observations.
	cands := f.cands[:0]
	for id, tr := range f.tracks {
		if tr.InState || live[id] {
			continue
		}
		if len(tr.Obs) >= f.P.MinTrackLen {
			cands = append(cands, tr)
		}
	}
	slices.SortFunc(cands, longestFirst)
	f.cands = cands[:0]
	if len(cands) == 0 {
		return
	}

	a := &f.arena
	a.Reset()
	n := f.dim()
	// The stack stops growing once it passes 3n rows (QR compresses the
	// rest), so it ends at most one feature — none taller than the first —
	// above that, and never above every candidate accepted at full height.
	maxRows := 0
	for _, tr := range cands {
		maxRows += featureRows(tr)
	}
	maxRows = min(maxRows, 3*n+featureRows(cands[0]))
	bigH := a.Mat(maxRows, n) // per-feature projected Jacobians, stacked
	bigR := a.Vec(maxRows)
	totalRows := 0
	for _, tr := range cands {
		if totalRows > 3*n { // cap stacked size
			break
		}
		h, r, ok := f.featureResidual(tr, sigma2)
		if !ok {
			f.stats.RejectedChi2++
			continue
		}
		bigH.SetBlock(totalRows, 0, h)
		copy(bigR[totalRows:], r)
		totalRows += h.Rows
		f.stats.InitFeatures++
	}
	// remove consumed tracks regardless of acceptance (they are dead)
	for _, tr := range cands {
		delete(f.tracks, tr.FeatureID)
	}
	clear(cands) // and drop the pointers to them
	if totalRows == 0 {
		return
	}
	bigH.Rows, bigH.Data = totalRows, bigH.Data[:totalRows*n]
	f.stats.MSCKFRows = totalRows
	f.ekfUpdate(bigH, bigR[:totalRows], sigma2)
}

// featureResidual triangulates one track and produces its nullspace-
// projected Jacobian and residual, chi-square gated. The results are the
// arena's.
func (f *Filter) featureResidual(tr *track, sigma2 float64) (*mathx.Mat, []float64, bool) {
	poses, idx := f.clonePoses(tr)
	if poses == nil || len(poses) < 2 {
		return nil, nil, false
	}
	a := &f.arena
	pf, _, ok := triangulateGN(a, poses, tr.Obs, f.P.MaxIterGN)
	if !ok {
		return nil, nil, false
	}
	n := f.dim()
	m := 2 * len(tr.Obs)
	hx := a.Mat(m, n)
	hf := a.Mat(m, 3)
	r := a.Vec(m)
	validRows := 0
	for i, o := range tr.Obs {
		res, hc, hfi, okJ := f.obsJacobian(idx[i], pf, o)
		if !okJ {
			continue
		}
		row := validRows * 2
		off := imuDim + 6*idx[i]
		for c := 0; c < 6; c++ {
			hx.Set(row, off+c, hc[0][c])
			hx.Set(row+1, off+c, hc[1][c])
		}
		for c := 0; c < 3; c++ {
			hf.Set(row, c, hfi[0][c])
			hf.Set(row+1, c, hfi[1][c])
		}
		r[row] = res[0]
		r[row+1] = res[1]
		validRows++
	}
	if validRows < 2 {
		return nil, nil, false
	}
	// keep the rows that were filled (row-major: a prefix of the data)
	m = 2 * validRows
	hx.Rows, hx.Data = m, hx.Data[:m*n]
	hf.Rows, hf.Data = m, hf.Data[:m*3]
	r = r[:m]
	// nullspace projection removes the feature-position dependence
	// (m ≥ 4 rows over 3 columns, so the left nullspace is never empty)
	ns := a.Mat(m, m-3)
	hf.NullspaceInto(ns, a)
	nsT := a.Mat(m-3, m)
	ns.TInto(nsT)
	hProj := a.Mat(m-3, n)
	nsT.MulMatInto(hProj, hx)
	rProj := a.Vec(m - 3)
	nsT.MulVecNInto(rProj, r)
	// chi-square gate: rᵀ (H P Hᵀ + σ²I)⁻¹ r < χ²₀.₉₅(dof)
	hp := a.Mat(m-3, n)
	hProj.MulMatInto(hp, f.cov)
	hProjT := a.Mat(n, m-3)
	hProj.TInto(hProjT)
	s := a.Mat(m-3, m-3)
	hp.MulMatInto(s, hProjT)
	for i := 0; i < s.Rows; i++ {
		s.Set(i, i, s.At(i, i)+sigma2)
	}
	sol := a.Vec(m - 3)
	if !s.CholeskySolveInto(sol, rProj, a) {
		return nil, nil, false
	}
	gamma := 0.0
	for i := range rProj {
		gamma += rProj[i] * sol[i]
	}
	if gamma > f.P.ChiSquareScale*mathx.Chi2Threshold95(len(rProj)) {
		return nil, nil, false
	}
	return hProj, rProj, true
}

// slamUpdate applies the EKF-SLAM measurement update for state features
// observed in the current frame.
func (f *Filter) slamUpdate(live map[int]bool, curClone int) {
	if len(f.slam) == 0 {
		return
	}
	sigma := f.P.PixelNoise / 320.0
	sigma2 := sigma * sigma
	ci := f.cloneIndex(curClone)
	if ci < 0 {
		return
	}
	a := &f.arena
	a.Reset()
	n := f.dim()
	so := f.slamOffset()
	bigH := a.Mat(2*len(f.slam), n) // accepted features' rows, stacked
	bigR := a.Vec(2 * len(f.slam))
	h, hT := a.Mat(2, n), a.Mat(n, 2)
	hp, s := a.Mat(2, n), a.Mat(2, 2)
	r, sol := a.Vec(2), a.Vec(2)
	rows := 0
	for si, sf := range f.slam {
		tr, ok := f.tracks[sf.ID]
		if !ok || !live[sf.ID] {
			continue
		}
		// latest observation is the one at the current clone
		var o featureObs
		found := false
		for i := len(tr.Obs) - 1; i >= 0; i-- {
			if tr.Obs[i].CloneID == curClone {
				o = tr.Obs[i]
				found = true
				break
			}
		}
		if !found {
			continue
		}
		res, hc, hfi, okJ := f.obsJacobian(ci, sf.Pos, o)
		if !okJ {
			continue
		}
		clear(h.Data)
		off := imuDim + 6*ci
		for c := 0; c < 6; c++ {
			h.Set(0, off+c, hc[0][c])
			h.Set(1, off+c, hc[1][c])
		}
		foff := so + 3*si
		for c := 0; c < 3; c++ {
			h.Set(0, foff+c, hfi[0][c])
			h.Set(1, foff+c, hfi[1][c])
		}
		r[0], r[1] = res[0], res[1]
		// per-feature chi-square gate
		h.MulMatInto(hp, f.cov)
		h.TInto(hT)
		hp.MulMatInto(s, hT)
		s.Set(0, 0, s.At(0, 0)+sigma2)
		s.Set(1, 1, s.At(1, 1)+sigma2)
		if !s.CholeskySolveInto(sol, r, a) {
			continue
		}
		gamma := r[0]*sol[0] + r[1]*sol[1]
		if gamma > f.P.ChiSquareScale*mathx.Chi2Threshold95(2) {
			f.stats.RejectedChi2++
			continue
		}
		bigH.SetBlock(rows, 0, h)
		copy(bigR[rows:], r)
		rows += 2
	}
	if rows == 0 {
		return
	}
	bigH.Rows, bigH.Data = rows, bigH.Data[:rows*n]
	f.stats.SLAMRows = rows
	f.ekfUpdate(bigH, bigR[:rows], sigma2)
}

// pruneSLAM drops SLAM features that are no longer observed.
func (f *Filter) pruneSLAM(live map[int]bool) {
	for i := len(f.slam) - 1; i >= 0; i-- {
		if live[f.slam[i].ID] {
			continue
		}
		// remove feature i from state
		off := f.slamOffset() + 3*i
		f.removeRange(off, 3)
		if tr, ok := f.tracks[f.slam[i].ID]; ok {
			tr.InState = false
			delete(f.tracks, f.slam[i].ID)
		}
		f.slam = append(f.slam[:i], f.slam[i+1:]...)
	}
}

// promoteSLAM upgrades mature live tracks into state features. The initial
// covariance is taken from the triangulation information matrix (inflated)
// with zero cross-correlation — a documented approximation of OpenVINS's
// delayed initialization.
func (f *Filter) promoteSLAM(live map[int]bool) {
	if len(f.slam) >= f.P.MaxSLAM {
		return
	}
	cands := f.cands[:0]
	for id, tr := range f.tracks {
		if tr.InState || !live[id] {
			continue
		}
		if len(tr.Obs) >= f.P.MaxClones-1 {
			cands = append(cands, tr)
		}
	}
	slices.SortFunc(cands, longestFirst)
	f.cands = cands[:0]
	f.arena.Reset()
	for _, tr := range cands {
		if len(f.slam) >= f.P.MaxSLAM {
			break
		}
		poses, _ := f.clonePoses(tr)
		if poses == nil {
			continue
		}
		pf, residual, ok := triangulateGN(&f.arena, poses, tr.Obs, f.P.MaxIterGN)
		if !ok || residual > 5*f.P.PixelNoise/320.0 {
			continue
		}
		// grow covariance by 3
		n := f.dim()
		newCov := f.nextCov(n + 3)
		newCov.SetBlock(0, 0, f.cov)
		// initial variance: conservative isotropic prior scaled by depth
		depth := pf.Sub(poses[len(poses)-1].Pos).Norm()
		v := 0.05 * depth * depth / float64(len(tr.Obs))
		if v < 1e-4 {
			v = 1e-4
		}
		for i := 0; i < 3; i++ {
			newCov.Set(n+i, n+i, v)
		}
		f.swapCov()
		f.slam = append(f.slam, slamFeat{ID: tr.FeatureID, Pos: pf})
		tr.InState = true
		// keep only the most recent observation; SLAM features update
		// against the newest clone from now on.
		// (moved to the front, so the slice keeps its capacity)
		tr.Obs[0] = tr.Obs[len(tr.Obs)-1]
		tr.Obs = tr.Obs[:1]
		f.stats.InitFeatures++
	}
}
