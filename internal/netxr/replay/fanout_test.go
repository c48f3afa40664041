package replay_test

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"illixr/internal/mathx"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/replay"
	"illixr/internal/netxr/wire"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// makeRecording synthesizes a realistic single-session capture: Hello,
// Welcome, a paced IMU stream with periodic QoE, downlink poses, Bye.
func makeRecording(t *testing.T, imuN int) *binlog.Log {
	t.Helper()
	var buf bytes.Buffer
	w, err := binlog.NewWriter(&buf, binlog.Meta{Session: 1, App: "rec",
		Seed: 7, IMURateHz: 500, CamRateHz: 15, Label: "fanout-src"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(dir binlog.Dir, wall float64, f wire.Frame) {
		if err := w.RecordAt(dir, wall, f); err != nil {
			t.Fatal(err)
		}
	}
	rec(binlog.DirUp, 0, wire.Frame{Type: wire.TypeHello, Payload: wire.AppendHello(nil,
		wire.Hello{Proto: wire.Version, App: "rec", Seed: 7, IMURateHz: 500, CamRateHz: 15})})
	rec(binlog.DirDown, 0.001, wire.Frame{Type: wire.TypeWelcome, Payload: wire.AppendWelcome(nil,
		wire.Welcome{Proto: wire.Version, Session: 1, ResumeToken: 99, PoseEpoch: 1})})
	for i := 0; i < imuN; i++ {
		wall := 0.002 * float64(i+1)
		rec(binlog.DirUp, wall, wire.Frame{Type: wire.TypeIMU, Payload: wire.AppendIMU(nil,
			sensors.IMUSample{T: wall, Gyro: mathx.Vec3{X: 0.1}, Accel: mathx.Vec3{Z: 9.81}})})
		rec(binlog.DirDown, wall+0.0005, wire.Frame{Type: wire.TypePose,
			Payload: wire.AppendPose(nil, wire.Pose{T: wall})})
		if i%10 == 9 {
			rec(binlog.DirUp, wall+0.0002, wire.Frame{Type: wire.TypeQoE, Payload: wire.AppendQoE(nil,
				wire.QoE{Session: 1, MTP: telemetry.MTPSample{T: wall, IMUAge: 1, Reproj: 2, Swap: 3}})})
		}
	}
	rec(binlog.DirUp, 0.002*float64(imuN+1), wire.Frame{Type: wire.TypeBye,
		Payload: wire.AppendBye(nil, wire.Bye{Reason: "done"})})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := binlog.DecodeLog(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFanOutSoakEightClients is the N× load-generation soak: one
// recording fanned out as 8 concurrent fresh-identity clients through
// the gateway into a live 2-replica fleet. Run under -race in CI; the
// cell must admit all 8 with zero lost uplink frames and poses flowing
// back to every client.
func TestFanOutSoakEightClients(t *testing.T) {
	const clients = 8
	const imuN = 40
	gf := newGoldenFleet(t, 2, clients, nil)
	l := makeRecording(t, imuN)

	results := replay.FanOut(clients, func(int) (net.Conn, error) {
		c, g := net.Pipe()
		gf.gw.HandleConn(g)
		return c, nil
	}, l, replay.Options{Timeout: 10 * time.Second})

	admitted, lost, poses, firstErr := replay.Tally(results)
	if firstErr != nil {
		t.Fatalf("first error: %v", firstErr)
	}
	if admitted != clients || lost != 0 {
		t.Fatalf("admitted %d/%d, lost %d; want all admitted, 0 lost", admitted, clients, lost)
	}
	if poses == 0 {
		t.Fatal("no poses flowed back during the soak")
	}
	// recorded uplink = hello + 40 IMU + 4 QoE + bye; the replayer skips
	// the recorded hello/bye and synthesizes its own pair
	const wantSent = 1 + imuN + imuN/10 + 1
	for i, r := range results {
		if r.Session == 0 {
			t.Fatalf("client %d: no session id", i)
		}
		if r.Resumed || r.PoseEpoch != 1 {
			t.Fatalf("client %d: fan-out identity resumed: %+v", i, r)
		}
		if r.Sent != wantSent || r.Skipped != 2 {
			t.Fatalf("client %d: sent %d skipped %d, want %d/2", i, r.Sent, r.Skipped, wantSent)
		}
		if r.Poses == 0 {
			t.Fatalf("client %d: no poses received", i)
		}
	}
}

// TestFanOutAdmissionRefusal composes replay with PR 6 admission on a
// 1-replica capacity-2 cell. Capacity is a bound on sessions open at
// once, so the test holds the first two replays open — parked in their
// first pacing sleep, admitted and mid-stream — while two more ask:
// those are refused with a typed, tallied error, never a hang, and once
// the holders say Bye their slots admit again. (Four unpaced 10-sample
// replays prove nothing: each is over in microseconds, so whether the
// later ones find a free slot is a scheduling accident.)
func TestFanOutAdmissionRefusal(t *testing.T) {
	gf := newGoldenFleet(t, 1, 2, nil)
	l := makeRecording(t, 10)
	dial := func(int) (net.Conn, error) {
		c, g := net.Pipe()
		gf.gw.HandleConn(g)
		return c, nil
	}

	parked := make(chan struct{}, 2) // one send per holder
	release := make(chan struct{})
	hold := replay.Options{Speed: 1e-3, Timeout: 5 * time.Second, Sleep: func(time.Duration) {
		select {
		case <-release:
			return
		default:
		}
		parked <- struct{}{}
		<-release
	}}
	held := make(chan []replay.Result, 1)
	go func() { held <- replay.FanOut(2, dial, l, hold) }()
	for i := 0; i < 2; i++ {
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("holders never reached their pacing sleep")
		}
	}
	if n := gf.coord.Sessions(0); n != 2 {
		t.Fatalf("coordinator counts %d sessions with two held open, want 2", n)
	}

	late := replay.FanOut(2, dial, l, replay.Options{Timeout: 5 * time.Second})
	admitted, lost, _, firstErr := replay.Tally(late)
	if admitted != 0 {
		t.Fatalf("admitted %d past a full cell, want 0", admitted)
	}
	if lost != 0 {
		t.Fatalf("refused clients lost %d frames; refusal is pre-stream", lost)
	}
	if !errors.Is(firstErr, replay.ErrRefused) {
		t.Fatalf("firstErr = %v, want ErrRefused", firstErr)
	}
	for i, r := range late {
		if !errors.Is(r.Err, replay.ErrRefused) {
			t.Fatalf("client %d failed with %v, want refusal", i, r.Err)
		}
	}

	close(release)
	if admitted, lost, _, firstErr := replay.Tally(<-held); admitted != 2 || lost != 0 {
		t.Fatalf("holders: admitted %d lost %d err %v, want 2 admitted and nothing lost", admitted, lost, firstErr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gf.coord.Sessions(0) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still held after both Byes", gf.coord.Sessions(0))
		}
		time.Sleep(time.Millisecond)
	}
	if admitted, _, _, firstErr := replay.Tally(replay.FanOut(2, dial, l, hold)); admitted != 2 {
		t.Fatalf("freed cell admitted %d of 2: %v", admitted, firstErr)
	}
}

// TestReplayPacingVirtualTime checks 1× pacing: with Speed 1 the
// replayer asks to sleep until each frame's recorded offset, so the
// largest requested target approaches the recording's uplink span.
func TestReplayPacingVirtualTime(t *testing.T) {
	gf := newGoldenFleet(t, 1, 4, nil)
	const imuN = 20
	l := makeRecording(t, imuN)
	span := 0.002 * float64(imuN) // first IMU at 2ms, last at 40ms

	var maxSleep time.Duration
	c, g := net.Pipe()
	gf.gw.HandleConn(g)
	res := replay.Replay(c, l, replay.Options{
		Speed:   1,
		Timeout: 5 * time.Second,
		Sleep: func(d time.Duration) {
			if d > maxSleep {
				maxSleep = d
			}
		},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d frames", res.Lost)
	}
	if got := maxSleep.Seconds(); got < span*0.5 {
		t.Fatalf("max pacing target %.4fs, want >= %.4fs (half the recorded span)", got, span*0.5)
	}
}
