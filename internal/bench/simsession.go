package bench

import (
	"illixr/internal/netxr/netsim"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
)

// sessionSpec is the physics of one simulated offload session: IMU
// samples go up a link, the server answers each with a pose after its
// turnaround, the pose comes down a link, and the client displays the
// newest delivered pose at every vsync. The session runs from t = 0 to
// endSec; the network experiment fills one of these in per session.
type sessionSpec struct {
	endSec         float64
	imuHz, vsyncHz float64
	// turnaroundSec is the server's integrate+publish time per sample.
	turnaroundSec float64
	up, down      *netsim.Link
}

// sessionResult carries everything the network experiment reports about
// one session.
type sessionResult struct {
	imuSent, poses, displayed int
	bytesUp, bytesDown        int64
	decodeErrors              int
	maxInflight               int
	repeatVsyncs              int
	// mtp holds one sample per vsync that had a pose to show: display
	// time minus the IMU timestamp of the pose shown, in ms.
	mtp []float64
}

// simulateSession runs one session's discrete-event simulation in
// virtual time, with the real codec in the loop for every message. No
// wall clock is read and each link draws from its own seeded stream in a
// fixed order, so the result is a pure function of the spec.
func simulateSession(s sessionSpec) sessionResult {
	var res sessionResult
	type poseArrival struct {
		recvT   float64 // virtual arrival at the client
		sampleT float64 // IMU timestamp the pose answers
	}
	var arrivals []poseArrival
	var inflight []float64 // uplink arrival times not yet reached
	var encBuf []byte

	n := int(s.endSec * s.imuHz)
	for i := 0; i < n; i++ {
		t := float64(i) / s.imuHz

		// uplink: encode, frame, decode — the real codec in the loop
		encBuf = wire.AppendFrame(encBuf[:0], wire.Frame{
			Type:    wire.TypeIMU,
			Payload: wire.AppendIMU(nil, sensors.IMUSample{T: t}),
		})
		res.bytesUp += int64(len(encBuf))
		f, _, err := wire.Decode(encBuf)
		if err == nil {
			_, err = wire.DecodeIMU(f.Payload)
		}
		if err != nil {
			res.decodeErrors++
			continue
		}
		res.imuSent++

		serverT := s.up.Arrive(t)
		// in-flight accounting: how many uplink messages were still in
		// the pipe when this one was sent
		keep := inflight[:0]
		for _, a := range inflight {
			if a > t {
				keep = append(keep, a)
			}
		}
		inflight = append(keep, serverT)
		if len(inflight) > res.maxInflight {
			res.maxInflight = len(inflight)
		}

		// downlink: the server integrates and answers with a pose frame
		sendT := serverT + s.turnaroundSec
		encBuf = wire.AppendFrame(encBuf[:0], wire.Frame{
			Type:    wire.TypePose,
			Payload: wire.AppendPose(nil, wire.Pose{T: t}),
		})
		res.bytesDown += int64(len(encBuf))
		pf, _, err := wire.Decode(encBuf)
		if err == nil {
			_, err = wire.DecodePose(pf.Payload)
		}
		if err != nil {
			res.decodeErrors++
			continue
		}
		arrivals = append(arrivals, poseArrival{recvT: s.down.Arrive(sendT), sampleT: t})
	}
	res.poses = len(arrivals)

	// display loop: at every vsync the newest delivered pose wins
	ptr, newest, shown := 0, -1, -1
	for v := 1; v <= int(s.endSec*s.vsyncHz); v++ {
		tv := float64(v) / s.vsyncHz
		advanced := false
		for ptr < len(arrivals) && arrivals[ptr].recvT <= tv {
			newest = ptr
			ptr++
			advanced = true
		}
		if newest < 0 {
			continue // nothing to show yet
		}
		if !advanced {
			res.repeatVsyncs++
		}
		if newest != shown {
			res.displayed++
			shown = newest
		}
		res.mtp = append(res.mtp, (tv-arrivals[newest].sampleT)*1000)
	}
	return res
}
