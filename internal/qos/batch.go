package qos

import (
	"sort"
	"sync"

	"illixr/internal/parallel"
)

// batchItem is one deferred unit of kernel work.
type batchItem struct {
	session uint64
	run     func()
}

// Batcher accumulates same-kernel work arriving from different sessions
// and executes it in one pool dispatch per kernel, amortizing the fixed
// per-dispatch cost across sessions (the cross-session batching half of
// DESIGN.md §14).
//
// Ordering semantics: items submitted by the SAME session for the SAME
// kernel run sequentially in arrival order (per-session frame order is
// preserved); items from DIFFERENT sessions run concurrently on the
// pool. Batching deliberately relaxes cross-kernel ordering within a
// session — a latest-wins IMU frame may be handled before an earlier
// batched camera frame — which the XR pipeline already tolerates
// (topics are independent streams with their own delivery classes).
//
// Safe for concurrent Submit from session goroutines; Flush serializes
// against Submit but runs the work outside the lock.
type Batcher struct {
	mu      sync.Mutex
	pool    *parallel.Pool
	pending map[string][]batchItem
}

// NewBatcher builds a batcher over pool. A nil pool degrades to serial
// execution at flush time (still batched, just not parallel).
func NewBatcher(pool *parallel.Pool) *Batcher {
	return &Batcher{pool: pool, pending: map[string][]batchItem{}}
}

// Submit queues one unit of kernel work on behalf of a session. run
// executes on a pool worker (or the flushing goroutine) at the next
// Flush.
func (b *Batcher) Submit(kernel string, session uint64, run func()) {
	b.mu.Lock()
	b.pending[kernel] = append(b.pending[kernel], batchItem{session, run})
	b.mu.Unlock()
}

// Flush executes everything queued so far and returns the number of
// items run. Kernels flush in sorted-name order; within a kernel,
// sessions are grouped (ascending session ID) and dispatched as one
// pool call — one tile per session, each tile running that session's
// items in arrival order.
func (b *Batcher) Flush() int {
	b.mu.Lock()
	if len(b.pending) == 0 {
		b.mu.Unlock()
		return 0
	}
	batch := b.pending
	b.pending = map[string][]batchItem{}
	b.mu.Unlock()

	kernels := make([]string, 0, len(batch))
	for k := range batch {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)

	total := 0
	for _, k := range kernels {
		items := batch[k]
		total += len(items)

		// group by session, preserving per-session arrival order
		bySess := map[uint64][]func(){}
		sessions := make([]uint64, 0, 4)
		for _, it := range items {
			if _, ok := bySess[it.session]; !ok {
				sessions = append(sessions, it.session)
			}
			bySess[it.session] = append(bySess[it.session], it.run)
		}
		sort.Slice(sessions, func(i, j int) bool { return sessions[i] < sessions[j] })

		runGroup := func(gi int) {
			for _, run := range bySess[sessions[gi]] {
				run()
			}
		}
		if b.pool != nil && len(sessions) > 1 {
			b.pool.ForTiles("qos_batch_"+k, len(sessions), 1, func(lo, hi int) {
				for gi := lo; gi < hi; gi++ {
					runGroup(gi)
				}
			})
		} else {
			for gi := range sessions {
				runGroup(gi)
			}
		}
	}
	return total
}
