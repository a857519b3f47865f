package sim

import "mobicore/internal/metrics"

// Arena is a cross-session reuse pool for the engine's buffers: the sampled
// series, CPU snapshots, scheduler scratch, policy-input slices, the power
// monitor's trace, and every per-cluster accumulator. A fleet worker owns
// one arena and threads it through consecutive cells, so steady-state cell
// execution allocates almost nothing — newSim resizes every buffer to the
// session's topology with reuse.Zeroed (series with seriesBuf), keeping
// whatever capacity earlier sessions accumulated, and series capacity is
// preallocated from the session duration (SessionSpec.NewIn) so appends
// never grow.
//
// Ownership contract: an arena backs at most one live Sim at a time.
// Constructing the next Sim from the arena reuses the previous one's
// buffers, so the caller must be completely done with the previous Sim
// first. Reports are safe to retain across that boundary — Sim.report deep
// copies every series — but the Sim itself (and its Monitor) must not be
// touched after the arena moves on. An Arena is not safe for concurrent
// use; give each worker goroutine its own.
type Arena struct {
	sim Sim
}

// NewArena returns an empty arena. The first session built in it allocates
// its buffers normally; later sessions reuse them.
func NewArena() *Arena {
	return &Arena{}
}

// take hands the arena's embedded Sim to a new session. The previous
// session's buffers ride along inside it; newSim resets every field,
// keeping only capacity.
func (a *Arena) take() *Sim {
	return &a.sim
}

// Reset drops the arena's association with the previous session's
// configuration (manager, workloads, hooks) while keeping every buffer's
// capacity. Construction via NewIn resets state anyway, so calling Reset
// between cells is optional — it exists for callers that want to release
// references (for garbage collection) without building the next session
// yet.
//
//mobicore:hotpath
func (a *Arena) Reset() {
	s := &a.sim
	s.cfg = Config{}
	s.cpu = nil
	s.model = nil
	s.net = nil
	s.sch.Placer = nil
	s.rng = nil
	s.views = s.views[:0]
	s.coreCluster = nil
	s.clusterFmax = nil
	s.threads = s.threads[:0]
	s.hinters = s.hinters[:0]
	s.memo = s.memo.Recycle()
	s.invalidateFast()
}

// seriesBuf resizes a pooled series slice, resetting each entry (length
// zero, points capacity kept). Unlike reuse.Zeroed it keeps each entry's
// points buffer: growth copies the old entries' structs so their
// accumulated capacity survives a cluster-count change.
func seriesBuf(b []metrics.Series, n int) []metrics.Series {
	if cap(b) < n {
		grown := make([]metrics.Series, n)
		copy(grown, b)
		b = grown
	}
	b = b[:n]
	for i := range b {
		b[i].Reset()
	}
	return b
}
