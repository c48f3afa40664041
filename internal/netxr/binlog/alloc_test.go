package binlog

import (
	"io"
	"runtime"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

// recordPose opens a tap into io.Discard and returns a Record call of
// one pose frame.
func recordPose(t *testing.T) func() {
	w, err := NewWriter(io.Discard, testMeta(), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	f := wire.Frame{Type: wire.TypePose, Payload: wire.AppendPose(nil, wire.Pose{T: 1})}
	return func() {
		if err := w.Record(DirDown, f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroAllocRecord: the capture tap's Record appends a frame with no
// heap allocation — its cost on the frame path is the encode into the
// reused buffer and the buffered write.
func TestZeroAllocRecord(t *testing.T) {
	testutil.MustZeroAllocs(t, "Writer.Record", recordPose(t))
}

// TestZeroAllocLongCapture: the writer keeps nothing per record, so a
// long capture allocates nothing at all. AllocsPerRun divides by the
// run count and would round amortized per-record growth down to zero;
// this counts every allocation across the whole capture instead.
func TestZeroAllocLongCapture(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counting is skipped under -race")
	}
	const records = 1 << 16
	record := recordPose(t)
	record() // size the reused record buffer
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < records; i++ {
		record()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d records: %d allocations, want 0", records, n)
	}
}
