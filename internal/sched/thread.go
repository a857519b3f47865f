// Package sched is the task-scheduling substrate: runnable threads carrying
// cycle debt, a deterministic load-balancing scheduler in the spirit of the
// default Linux balancer (§3.2: "the default Linux task scheduler is
// splitting the workload over a certain number of processes"), and the
// global CPU bandwidth quota MobiCore manipulates (the cgroup cpu.cfs_quota
// analogue the thesis calls "a value which stands for the global CPU
// bandwidth", §4.1.1).
package sched

import "fmt"

// Thread is a schedulable entity accumulating cycle debt. Workloads deposit
// work with AddWork; the scheduler drains it. Not safe for concurrent use;
// the simulation loop serializes workload and scheduler access.
type Thread struct {
	name     string
	nameKey  uint64  // name's first 8 bytes, big-endian and zero-padded
	pending  float64 // cycles waiting to execute
	executed float64 // cumulative cycles executed
	lastCore int     // affinity hint; -1 before first placement
	// stampWin and stampDebt record the last scheduling pass with a Memo
	// that found the thread runnable (the Memo's pass count) and its debt
	// when that window opened: the per-thread half of the memo's "does
	// this window repeat the previous one" test.
	stampWin  uint64
	stampDebt float64
}

// NewThread creates an idle thread. Name is used for deterministic
// tie-breaking and diagnostics.
func NewThread(name string) *Thread {
	var key uint64
	for i := 0; i < 8; i++ {
		key <<= 8
		if i < len(name) {
			key |= uint64(name[i])
		}
	}
	return &Thread{name: name, nameKey: key, lastCore: -1}
}

// nameLess orders threads by name. Two names whose zero-padded 8-byte
// prefixes differ order as those prefixes do, so the prefix keys settle
// most comparisons without a string compare.
//
//mobicore:hotpath
func nameLess(a, b *Thread) bool {
	if a.nameKey != b.nameKey {
		return a.nameKey < b.nameKey
	}
	return a.name < b.name
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// AddWork deposits cycles of demand. Negative amounts are ignored.
func (t *Thread) AddWork(cycles float64) {
	if cycles > 0 {
		t.pending += cycles
	}
}

// DropWork removes up to cycles of pending demand (work shedding, e.g. a
// game skipping a frame) and returns the amount actually dropped.
func (t *Thread) DropWork(cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	if cycles > t.pending {
		cycles = t.pending
	}
	t.pending -= cycles
	return cycles
}

// Pending returns cycles queued but not yet executed.
func (t *Thread) Pending() float64 { return t.pending }

// Executed returns cumulative executed cycles.
func (t *Thread) Executed() float64 { return t.executed }

// Runnable reports whether the thread has pending work.
func (t *Thread) Runnable() bool { return t.pending > 0 }

// LastCore returns the core the thread last ran on, or -1.
func (t *Thread) LastCore() int { return t.lastCore }

// Execute runs up to cycles of pending work on the given core, returning
// the amount executed. The package scheduler is the normal caller; custom
// harnesses may drive threads directly.
func (t *Thread) Execute(cycles float64, core int) float64 {
	if cycles <= 0 || t.pending <= 0 {
		return 0
	}
	if cycles > t.pending {
		cycles = t.pending
	}
	t.pending -= cycles
	t.executed += cycles
	t.lastCore = core
	return cycles
}

// String implements fmt.Stringer for diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s pending=%.0f executed=%.0f)", t.name, t.pending, t.executed)
}
