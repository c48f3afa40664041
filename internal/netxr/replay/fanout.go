package replay

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/wire"
)

// Options tunes a replayed client.
type Options struct {
	// Speed scales pacing against the recorded wall stamps: 1 replays
	// in recorded time, 2 at double speed, 0 streams flat out.
	Speed float64
	// App overrides the recorded Hello's application label ("" keeps it).
	App string
	// Seed offsets the recorded Hello's dataset seed (fan-out clients
	// can present distinct seeds without re-recording); 0 keeps it.
	Seed int64
	// Timeout bounds the handshake, the wait for a first pose before the
	// Bye, and the post-Bye drain (0 = 5s).
	Timeout time.Duration
	// Sleep is the pacing primitive, injectable for tests; nil =
	// time.Sleep.
	Sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Result is one replayed client's outcome. Lost must be zero for a
// healthy fan-out cell: every recorded uplink frame either reached the
// wire or was deliberately skipped (handshake/teardown frames the
// replayer synthesizes itself).
type Result struct {
	// Session / PoseEpoch / Resumed echo the Welcome this replayed
	// client was admitted with.
	Session   uint64
	PoseEpoch uint64
	Resumed   bool
	// Sent counts uplink frames written (synthesized Hello and Bye
	// included); Received counts downlink frames read, Poses the pose
	// subset.
	Sent     uint64
	Received uint64
	Poses    uint64
	// Skipped counts recorded uplink frames not replayed: the recorded
	// Hello(s) and Bye(s), replaced by this client's own identity.
	Skipped uint64
	// Lost counts recorded uplink frames that failed to reach the wire.
	Lost uint64
	// Err is the first transport/handshake failure (nil on success).
	Err error `json:"-"`
}

// ErrRefused is wrapped into Result.Err when the fleet answers the
// replayed Hello with a Bye.
var ErrRefused = errors.New("replay: admission refused")

// helloOf finds the first recorded uplink Hello — the identity template
// every replayed client restamps.
func helloOf(l *binlog.Log) (wire.Hello, error) {
	for _, r := range l.Records {
		if r.Dir == binlog.DirUp && r.Frame.Type == wire.TypeHello {
			return wire.DecodeHello(r.Frame.Payload)
		}
	}
	return wire.Hello{}, errors.New("replay: no uplink Hello in recording")
}

// Replay drives one fresh-identity client from the recording over conn:
// it handshakes with a resume-stripped restamped Hello, streams every
// recorded uplink frame (QoE session ids rewritten to the new session),
// paced against the recorded wall stamps, then says Bye (once its first
// pose is back, if the recorded session received any) and drains the
// downlink. The caller owns conn's lifetime on error paths; Replay
// closes it on all paths before returning.
func Replay(conn net.Conn, l *binlog.Log, opt Options) Result {
	opt = opt.withDefaults()
	var res Result
	defer func() { _ = conn.Close() }()

	hello, err := helloOf(l)
	if err != nil {
		res.Err = err
		return res
	}
	// fresh identity: never resume the recorded session, optionally
	// restamp the label and seed
	hello.ResumeToken, hello.LastSeq = 0, 0
	if opt.App != "" {
		hello.App = opt.App
	}
	hello.Seed += opt.Seed

	w, r := wire.NewWriter(conn), wire.NewReader(conn)
	if err := w.WriteFrame(wire.Frame{Type: wire.TypeHello,
		Payload: wire.AppendHello(nil, hello)}); err != nil {
		res.Err = fmt.Errorf("replay: hello: %w", err)
		return res
	}
	res.Sent++
	_ = conn.SetReadDeadline(time.Now().Add(opt.Timeout))
	f, err := r.ReadFrame()
	if err != nil {
		res.Err = fmt.Errorf("replay: awaiting welcome: %w", err)
		return res
	}
	_ = conn.SetReadDeadline(time.Time{})
	switch f.Type {
	case wire.TypeWelcome:
		wel, derr := wire.DecodeWelcome(f.Payload)
		if derr != nil {
			res.Err = fmt.Errorf("replay: welcome: %w", derr)
			return res
		}
		res.Session, res.PoseEpoch, res.Resumed = wel.Session, wel.PoseEpoch, wel.Resumed
		res.Received++
	case wire.TypeBye:
		b, _ := wire.DecodeBye(f.Payload)
		res.Err = fmt.Errorf("%w: %s", ErrRefused, b.Reason)
		return res
	default:
		res.Err = fmt.Errorf("replay: unexpected %v before welcome", f.Type)
		return res
	}

	// downlink drain: count what comes back until Bye/close.
	var downMu sync.Mutex
	firstPose, downDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(downDone)
		for {
			df, err := r.ReadFrame()
			if err != nil {
				return
			}
			downMu.Lock()
			res.Received++
			if df.Type == wire.TypePose {
				if res.Poses == 0 {
					close(firstPose)
				}
				res.Poses++
			}
			downMu.Unlock()
			if df.Type == wire.TypeBye {
				return
			}
		}
	}()

	// uplink: stream the recording. Wall stamps are relative to the
	// first replayed frame so captures that start mid-run pace correctly.
	var qoeBuf []byte
	start := time.Now()
	base, haveBase := 0.0, false
	err = nil
	for _, rec := range l.Records {
		if rec.Dir != binlog.DirUp {
			continue
		}
		switch rec.Frame.Type {
		case wire.TypeHello, wire.TypeBye:
			res.Skipped++ // identity and teardown are synthesized, not replayed
			continue
		}
		if err != nil {
			res.Lost++ // transport already failed: account the remainder
			continue
		}
		if !haveBase {
			base, haveBase = rec.Wall, true
		}
		if opt.Speed > 0 {
			target := time.Duration((rec.Wall - base) / opt.Speed * float64(time.Second))
			if d := target - time.Since(start); d > 0 {
				opt.Sleep(d)
			}
		}
		out := rec.Frame
		if out.Type == wire.TypeQoE {
			// QoE carries the recorded session id; restamp it with this
			// replayed client's identity so per-session attribution holds.
			q, derr := wire.DecodeQoE(out.Payload)
			if derr == nil {
				q.Session = res.Session
				qoeBuf = wire.AppendQoE(qoeBuf[:0], q)
				out.Payload = qoeBuf
			}
		}
		if werr := w.WriteFrame(out); werr != nil {
			err = fmt.Errorf("replay: uplink: %w", werr)
			res.Lost++
			continue
		}
		res.Sent++
	}
	if err == nil {
		if recordedPoses(l) {
			// A Bye severs a gateway relay at once: the downlink is closed
			// under whatever the replica still had to flush. On a loaded
			// machine the whole uplink can outrun the first pose, so a
			// session recorded receiving poses holds its Bye until its own
			// first one is back.
			bound := time.NewTimer(opt.Timeout)
			select {
			case <-firstPose:
			case <-downDone:
			case <-bound.C:
			}
			bound.Stop()
		}
		if werr := w.WriteFrame(wire.Frame{Type: wire.TypeBye,
			Payload: wire.AppendBye(nil, wire.Bye{Reason: "replay done"})}); werr == nil {
			res.Sent++
		}
	}
	// bounded drain: the server flushes queued downlink and answers the
	// Bye; a dead peer must not hang the replayer.
	_ = conn.SetReadDeadline(time.Now().Add(opt.Timeout))
	<-downDone
	res.Err = err
	return res
}

// recordedPoses reports whether the recorded session received a pose.
func recordedPoses(l *binlog.Log) bool {
	for _, rec := range l.Records {
		if rec.Dir == binlog.DirDown && rec.Frame.Type == wire.TypePose {
			return true
		}
	}
	return false
}

// FanOut replays the recording as n concurrent fresh-identity clients
// (each dialed via dial, each seed-offset by its index) and collects
// the per-client results — one captured session hammering a fleet as
// n synthetic ones.
func FanOut(n int, dial func(i int) (net.Conn, error), l *binlog.Log, opt Options) []Result {
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := dial(i)
			if err != nil {
				results[i].Err = fmt.Errorf("replay: dial client %d: %w", i, err)
				return
			}
			o := opt
			o.Seed += int64(i)
			results[i] = Replay(conn, l, o)
		}(i)
	}
	wg.Wait()
	return results
}

// Tally summarizes fan-out results: admitted sessions, total frames
// lost, total poses received, and the first error (nil when clean).
func Tally(results []Result) (admitted int, lost, poses uint64, firstErr error) {
	for i := range results {
		r := &results[i]
		if r.Err == nil {
			admitted++
		} else if firstErr == nil {
			firstErr = r.Err
		}
		lost += r.Lost
		poses += r.Poses
	}
	return admitted, lost, poses, firstErr
}
