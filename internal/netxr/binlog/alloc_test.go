package binlog

import (
	"io"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
	"illixr/internal/testutil"
)

// TestZeroAllocRecord: once Reserve has sized the index, the capture
// tap's Record appends a frame with no heap allocation — its cost on the
// frame path is the encode into the reused buffer and the buffered write.
func TestZeroAllocRecord(t *testing.T) {
	w, err := NewWriter(io.Discard, testMeta(), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// MustZeroAllocs makes a little over 100 calls; every one of them
	// lands in the reserved index
	w.Reserve(256)
	f := wire.Frame{Type: wire.TypePose, Payload: wire.AppendPose(nil, wire.Pose{T: 1})}
	testutil.MustZeroAllocs(t, "Writer.Record", func() {
		if err := w.Record(DirDown, f); err != nil {
			t.Fatal(err)
		}
	})
}
