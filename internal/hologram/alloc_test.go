package hologram

import (
	"testing"

	"illixr/internal/testutil"
)

// TestZeroAllocGSW pins the serial GSW solver at zero steady-state
// allocations once its context, delta rows, and result buffers cycle
// through the pools.
func TestZeroAllocGSW(t *testing.T) {
	p := DefaultParams()
	p.Width, p.Height = 64, 64
	p.Iterations = 2
	spots := SpotsFromDepthPlanes(2, 3, 6e-4, 0.02)
	testutil.MustZeroAllocs(t, "GeneratePool", func() {
		r := GeneratePool(nil, p, spots)
		ReleaseResult(&r)
	})
}
