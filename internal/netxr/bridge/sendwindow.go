package bridge

import (
	"sync"

	"illixr/internal/netxr/wire"
	"illixr/internal/recycle"
)

// SendWindow is the client-side uplink retransmission buffer that
// closes the resume gap (ROADMAP item 1): every post-handshake uplink
// frame the client writes is numbered and retained (bounded), and when
// a reconnect comes back with a Resumed Welcome the frames in
// (last_ack_seq, head] are retransmitted so the server sees the uplink
// stream without a hole.
//
// Sequence mapping: the gateway acks its own count of relayed frames,
// which equals the client's count as long as every gap is retransmitted.
// When the bounded window has already evicted frames the ack calls for,
// those frames are permanently lost; `offset` records how many, so all
// later acks still map exactly onto client sequence numbers
// (clientSeq = ackSeq + offset).
//
// A SendWindow outlives any single Client — hand one to a Redialer and
// it follows the session across reconnects. Safe for concurrent use.
type SendWindow struct {
	mu      sync.Mutex
	cap     int
	entries []winEntry
	head    uint64 // client seq of the most recently pushed frame
	offset  uint64 // frames permanently lost to truncation
}

type winEntry struct {
	seq uint64
	f   wire.Frame // payload is an owned recycle.Bytes copy
}

// NewSendWindow returns a window retaining at most capacity unacked
// frames (0 = 1024). At 500 Hz IMU + 15 Hz camera the default covers
// roughly two seconds of uplink — more than the redialer's backoff cap.
func NewSendWindow(capacity int) *SendWindow {
	if capacity <= 0 {
		capacity = 1024
	}
	return &SendWindow{cap: capacity}
}

// push records one sent frame (payload copied). Called by Client.queue
// for every tracked frame as it is queued for the wire.
func (w *SendWindow) push(f wire.Frame) {
	w.mu.Lock()
	w.head++
	cp := f
	cp.Payload = recycle.Bytes.Get(len(f.Payload))
	copy(cp.Payload, f.Payload)
	w.entries = append(w.entries, winEntry{seq: w.head, f: cp})
	if over := len(w.entries) - w.cap; over > 0 {
		for j := 0; j < over; j++ {
			recycle.Bytes.Put(w.entries[j].f.Payload)
		}
		n := copy(w.entries, w.entries[over:])
		for j := n; j < len(w.entries); j++ {
			w.entries[j] = winEntry{}
		}
		w.entries = w.entries[:n]
	}
	w.mu.Unlock()
}

// resume maps a server ack onto client sequence space, drops everything
// the ack covers, accounts frames the window no longer holds as
// permanently lost, and returns the frames to retransmit in order. The
// returned frames alias window-owned payloads: they stay valid until
// the corresponding entries are dropped by a later resume, so callers
// must finish writing them before the next resume (the redialer's
// single-goroutine Connect contract guarantees this).
func (w *SendWindow) resume(lastAckSeq uint64) (frames []wire.Frame, lost uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	acked := lastAckSeq + w.offset // client-seq of the last frame the server has
	// drop the acked prefix (compacting in place so the backing array
	// does not grow without bound across resumes)
	i := 0
	for i < len(w.entries) && w.entries[i].seq <= acked {
		recycle.Bytes.Put(w.entries[i].f.Payload)
		i++
	}
	if i > 0 {
		n := copy(w.entries, w.entries[i:])
		for j := n; j < len(w.entries); j++ {
			w.entries[j] = winEntry{}
		}
		w.entries = w.entries[:n]
	}
	// frames between the ack and our oldest retained entry were evicted:
	// permanently lost, fold them into the offset so future acks map
	if len(w.entries) > 0 && w.entries[0].seq > acked+1 {
		lost = w.entries[0].seq - acked - 1
	} else if len(w.entries) == 0 && w.head > acked {
		lost = w.head - acked
	}
	w.offset += lost
	for _, e := range w.entries {
		frames = append(frames, e.f)
	}
	return frames, lost
}

// retransmitTo replays the unacked gap [lastAckSeq+1, head] onto a
// freshly resumed client connection. Returns the number of frames
// retransmitted and how many were permanently lost to window
// truncation; a write error leaves the window intact (the frames stay
// queued for the next resume).
func (w *SendWindow) retransmitTo(c *Client, lastAckSeq uint64) (sent int, lost uint64, err error) {
	frames, lost := w.resume(lastAckSeq)
	for i, f := range frames {
		if err := c.queue(f, false, i == len(frames)-1); err != nil {
			// the failed flush took the current batch with it; the whole
			// batches before it made it out
			return i - i%wire.FlushWindow, lost, err
		}
	}
	return len(frames), lost, nil
}
