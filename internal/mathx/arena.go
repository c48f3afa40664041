package mathx

import "fmt"

// Arena is a bump allocator for the temporaries of one computation: Mat
// and Vec hand out zeroed memory, Reset takes all of it back at once. A
// matrix is valid until the owner's next Reset and must not be kept past
// it. The zero value is ready to use; an Arena is not safe for concurrent
// use.
//
// Both the float data and the Mat headers live in slabs. When a slab is
// full the arena starts a larger one and leaves the old one to whatever
// still points into it, so a handed-out matrix never moves and growth
// never invalidates one. Reset sizes the slab to everything the last
// cycle used; once the cycles stop growing, a Reset/Mat cycle allocates
// nothing.
type Arena struct {
	data  []float64
	off   int // floats handed out from data
	spilt int // floats handed out from slabs left behind since the last Reset

	hdrs   []Mat
	hoff   int
	hspilt int
}

// arenaMinSlab keeps a throwaway arena (the allocating wrappers make one
// per call) from paying for more than a small solve needs.
const arenaMinSlab = 64

// Vec returns a zeroed vector of length n.
func (a *Arena) Vec(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("mathx: invalid vector length %d", n))
	}
	if a.off+n > len(a.data) {
		a.spilt += a.off
		a.data = make([]float64, max(2*len(a.data), n, arenaMinSlab))
		a.off = 0
	}
	v := a.data[a.off : a.off+n : a.off+n]
	a.off += n
	clear(v)
	return v
}

// Mat returns a zeroed rows×cols matrix.
func (a *Arena) Mat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	if a.hoff == len(a.hdrs) {
		a.hspilt += a.hoff
		a.hdrs = make([]Mat, max(2*len(a.hdrs), 8))
		a.hoff = 0
	}
	m := &a.hdrs[a.hoff]
	a.hoff++
	*m = Mat{Rows: rows, Cols: cols, Data: a.Vec(rows * cols)}
	return m
}

// Reset takes back everything handed out. Memory handed out before the
// Reset is reused by later calls.
func (a *Arena) Reset() {
	if need := a.spilt + a.off; need > len(a.data) {
		a.data = make([]float64, need)
	}
	if need := a.hspilt + a.hoff; need > len(a.hdrs) {
		a.hdrs = make([]Mat, need)
	}
	// a stale header would keep a slab left behind reachable
	clear(a.hdrs[:a.hoff])
	a.off, a.spilt, a.hoff, a.hspilt = 0, 0, 0, 0
}
