package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mobicore/internal/soc"
)

// memoFixture builds a 4-core CPU at a mid-ladder frequency plus one thread
// per pending amount, named t0, t1, ... so name tiebreaks are deterministic.
func memoFixture(t *testing.T, pendings []float64) (*soc.CPU, []*Thread) {
	t.Helper()
	cpu := newCPU(t, 4)
	if err := cpu.SetFreqAll(1_036_800 * soc.KHz); err != nil {
		t.Fatal(err)
	}
	threads := make([]*Thread, len(pendings))
	for i, p := range pendings {
		th := NewThread(fmt.Sprintf("t%d", i))
		th.AddWork(p)
		threads[i] = th
	}
	return cpu, threads
}

func memoSatRate() float64 { return float64(soc.MSM8974Table().Max().Freq) }

// bitsEqual compares floats as bit patterns: the memo contract is
// byte-identical replay, not approximate replay.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireResultIdentical(t *testing.T, tick int, got, want Result) {
	t.Helper()
	if len(got.BusySeconds) != len(want.BusySeconds) {
		t.Fatalf("tick %d: busy len %d vs %d", tick, len(got.BusySeconds), len(want.BusySeconds))
	}
	for i := range got.BusySeconds {
		if !bitsEqual(got.BusySeconds[i], want.BusySeconds[i]) {
			t.Fatalf("tick %d: core %d busy %x vs %x", tick, i,
				math.Float64bits(got.BusySeconds[i]), math.Float64bits(want.BusySeconds[i]))
		}
	}
	if !bitsEqual(got.ExecutedCycles, want.ExecutedCycles) {
		t.Fatalf("tick %d: executed %v vs %v", tick, got.ExecutedCycles, want.ExecutedCycles)
	}
	if !bitsEqual(got.ThrottledSeconds, want.ThrottledSeconds) {
		t.Fatalf("tick %d: throttled %v vs %v", tick, got.ThrottledSeconds, want.ThrottledSeconds)
	}
	if !bitsEqual(got.PoolUsedSec, want.PoolUsedSec) {
		t.Fatalf("tick %d: pool used %v vs %v", tick, got.PoolUsedSec, want.PoolUsedSec)
	}
}

func requireUniversesIdentical(t *testing.T, tick int, cpuA, cpuB *soc.CPU, thA, thB []*Thread) {
	t.Helper()
	snapA, snapB := cpuA.Snapshot(), cpuB.Snapshot()
	for i := range snapA {
		if snapA[i] != snapB[i] {
			t.Fatalf("tick %d: core %d snapshot %+v vs %+v", tick, i, snapA[i], snapB[i])
		}
	}
	for i := range thA {
		a, b := thA[i], thB[i]
		if !bitsEqual(a.Pending(), b.Pending()) || !bitsEqual(a.Executed(), b.Executed()) || a.LastCore() != b.LastCore() {
			t.Fatalf("tick %d: thread %d state (%v %v %d) vs (%v %v %d)", tick, i,
				a.Pending(), a.Executed(), a.LastCore(), b.Pending(), b.Executed(), b.LastCore())
		}
	}
}

// memoRun is runMemoVsSlow's account of universe A: how many ticks
// replayed, split into windows that had runnable backlog and idle (empty)
// windows, and tick by tick which replayed and which armed a recording.
type memoRun struct {
	fastBusy, fastIdle int
	replayed           []bool // the tick replayed a retained window
	armed              []bool // the tick's scheduling pass armed a slot
}

// firstReplay returns the first replayed tick at or after from, or -1.
func (r memoRun) firstReplay(from int) int {
	for tick := from; tick < len(r.replayed); tick++ {
		if r.replayed[tick] {
			return tick
		}
	}
	return -1
}

// replays counts the replayed ticks in [from, to).
func (r memoRun) replays(from, to int) int {
	n := 0
	for _, ok := range r.replayed[from:to] {
		if ok {
			n++
		}
	}
	return n
}

// runMemoVsSlow drives two identical universes for ticks windows: A takes the
// memo fast path whenever Match accepts, B always runs the full scheduler.
// demand, when non-nil, scripts workload changes: it runs on each universe's
// threads before every window and must act on thread state alone, so both
// universes see the same change. Every tick's Result and both universes'
// complete state must stay bit-identical.
func runMemoVsSlow(t *testing.T, pendings []float64, ticks int, poolSec float64, demand func(tick int, threads []*Thread)) memoRun {
	t.Helper()
	run := memoRun{replayed: make([]bool, ticks), armed: make([]bool, ticks)}
	cpuA, thA := memoFixture(t, pendings)
	cpuB, thB := memoFixture(t, pendings)
	var schedA, schedB Scheduler
	var memo Memo
	satRate := memoSatRate()
	dt := time.Millisecond
	busyA := make([]float64, cpuA.NumCores())
	busyB := make([]float64, cpuB.NumCores())
	for tick := 0; tick < ticks; tick++ {
		if demand != nil {
			demand(tick, thA)
			demand(tick, thB)
		}
		runnable := 0
		for _, th := range thA {
			if th.Runnable() {
				runnable++
			}
		}
		var resA Result
		var err error
		if idx := memo.Match(thA, false, poolSec, Pressure{}); idx >= 0 {
			resA, err = memo.ReplayInto(idx, busyA, cpuA)
			run.replayed[tick] = true
			if runnable > 0 {
				run.fastBusy++
			} else {
				run.fastIdle++
			}
		} else {
			resA, err = schedA.ScheduleRecordInto(&memo, satRate, busyA, nil, cpuA, thA, dt, poolSec, Pressure{})
			run.armed[tick] = memo.Armed()
		}
		if err != nil {
			t.Fatal(err)
		}
		resB, err := schedB.ScheduleThermalInto(busyB, cpuB, thB, dt, poolSec, Pressure{})
		if err != nil {
			t.Fatal(err)
		}
		requireResultIdentical(t, tick, resA, resB)
		requireUniversesIdentical(t, tick, cpuA, cpuB, thA, thB)
	}
	return run
}

// TestMemoReplayMatchesFreshSchedule proves the core contract: a replayed
// window leaves every Result field, thread, and core bit-identical to the
// full scheduling pass it stands in for.
func TestMemoReplayMatchesFreshSchedule(t *testing.T) {
	t.Run("saturated distinct debts", func(t *testing.T) {
		fast := runMemoVsSlow(t, []float64{4e12, 3e12, 2e12, 1e12}, 50, Unlimited, nil).fastBusy
		if fast < 45 {
			t.Errorf("replayed %d of 50 ticks, want at least 45", fast)
		}
	})
	t.Run("saturated under wide pool", func(t *testing.T) {
		// A finite pool far above per-window consumption records limited
		// windows that keep replaying while headroom holds.
		fast := runMemoVsSlow(t, []float64{4e12, 3e12, 2e12, 1e12}, 50, 1.0, nil).fastBusy
		if fast < 45 {
			t.Errorf("replayed %d of 50 ticks, want at least 45", fast)
		}
	})
	t.Run("oversubscribed alternation", func(t *testing.T) {
		// Eight equal saturated threads on four cores alternate between two
		// serving halves with stable affinities; once both phases are
		// recorded (tick 4 on) every tick replays from its own ring slot.
		fast := runMemoVsSlow(t, []float64{1e13, 1e13, 1e13, 1e13, 1e13, 1e13, 1e13, 1e13}, 60, Unlimited, nil).fastBusy
		if fast < 50 {
			t.Errorf("replayed %d of 60 ticks, want at least 50", fast)
		}
	})
	t.Run("rotation, quiescent stretch, rotation", func(t *testing.T) {
		// The probe order follows the hits: the slot after the last hit
		// while a 2-phase rotation alternates, the last hit itself while
		// the window stands still. Eight equal saturated threads rotate,
		// then the second half drains and the first four sit quiescent on
		// their cores, then the second half returns at exactly the first
		// half's debt and the rotation resumes.
		run := runMemoVsSlow(t, []float64{1e13, 1e13, 1e13, 1e13, 1e13, 1e13, 1e13, 1e13}, 90, Unlimited,
			func(tick int, threads []*Thread) {
				switch tick {
				case 30:
					for _, th := range threads[4:] {
						th.DropWork(th.Pending())
					}
				case 60:
					for _, th := range threads[4:] {
						th.AddWork(threads[0].Pending())
					}
				}
			})
		if fast := run.fastBusy; fast < 80 {
			t.Errorf("replayed %d of 90 ticks, want at least 80", fast)
		}
	})
	t.Run("rotation longer than ring falls back", func(t *testing.T) {
		// Six equal saturated threads on four cores rotate affinities with a
		// period beyond MemoRing, so no retained window ever matches again —
		// the memo must fall back to the slow path, never to wrong output.
		fast := runMemoVsSlow(t, []float64{1e13, 1e13, 1e13, 1e13, 1e13, 1e13}, 30, Unlimited, nil).fastBusy
		if fast != 0 {
			t.Errorf("replayed %d ticks of an unmemoizable rotation, want 0", fast)
		}
	})
	t.Run("noisy then quiet", func(t *testing.T) {
		// Fresh unsaturated debts every window for 30 ticks: no window can
		// repeat, so nothing is recorded. Then every thread deposits the
		// same amount each tick: the stretch's second window repeats its
		// first and records, and the third replays.
		const quiet = 30
		run := runMemoVsSlow(t, []float64{5e5, 4e5, 3e5, 2e5}, 60, Unlimited, func(tick int, threads []*Thread) {
			if tick < quiet {
				noisyDeposit(tick, threads)
				return
			}
			for _, th := range threads {
				th.AddWork(3e5)
			}
		})
		for tick := 0; tick < quiet; tick++ {
			if run.armed[tick] || run.replayed[tick] {
				t.Fatalf("noisy tick %d armed=%v replayed=%v, want neither", tick, run.armed[tick], run.replayed[tick])
			}
		}
		if first := run.firstReplay(quiet); first < 0 || first > quiet+2 {
			t.Errorf("first replay of the quiet stretch at tick %d, want by tick %d", first, quiet+2)
		}
		if got := run.replays(quiet, 60); got < 28 {
			t.Errorf("replayed %d of 30 quiet ticks, want at least 28", got)
		}
	})
	t.Run("starved", func(t *testing.T) {
		// An empty pool throughout while fresh debts arrive every window:
		// no debt ever repeats, yet every drained window after the first
		// replays, because a starved window's outcome does not depend on
		// debts.
		fast := runMemoVsSlow(t, []float64{5e5, 4e5, 3e5, 2e5}, 40, 0, noisyDeposit).fastBusy
		if fast != 39 {
			t.Errorf("replayed %d of 40 starved ticks, want 39", fast)
		}
	})
	t.Run("rotation", func(t *testing.T) {
		// After a quiescent lead-in (the memo is paying), the threads swap
		// their unsaturated deposits every window: two phases whose debts
		// never repeat the previous window. The paying memo records the
		// first phase, replays it, records the second, and from then on
		// both replay.
		const lead = 10
		phases := [2][4]float64{{5e5, 4e5, 3e5, 2e5}, {2e5, 3e5, 4e5, 5e5}}
		run := runMemoVsSlow(t, []float64{3e5, 3e5, 3e5, 3e5}, 60, Unlimited, func(tick int, threads []*Thread) {
			if tick == 0 {
				return
			}
			for i, th := range threads {
				if tick < lead {
					th.AddWork(3e5)
				} else {
					th.AddWork(phases[tick%2][i])
				}
			}
		})
		if got := run.replays(lead, 60); got < 45 {
			t.Errorf("replayed %d of 50 rotation ticks, want at least 45", got)
		}
	})
	t.Run("unsaturated drain falls back", func(t *testing.T) {
		// Below the saturation ceiling every grant changes the exact debt
		// the record fingerprinted, so no busy tick may replay — correctness
		// comes from the identity comparison, the count just documents that
		// the memo never pretends a draining window is quiescent. Once the
		// threads empty out, the idle windows replay trivially.
		run := runMemoVsSlow(t, []float64{2e6, 1.5e6, 1e6, 0.5e6}, 10, Unlimited, nil)
		if run.fastBusy != 0 {
			t.Errorf("replayed %d busy unsaturated ticks, want 0", run.fastBusy)
		}
		if run.fastIdle == 0 {
			t.Error("idle tail should replay its empty windows")
		}
	})
}

// noisyDeposit gives every thread a fresh unsaturated deposit drawn from
// the tick number alone, so both universes of a run see the same demand.
func noisyDeposit(tick int, threads []*Thread) {
	rng := rand.New(rand.NewSource(int64(tick) + 1))
	for _, th := range threads {
		th.AddWork(1e5 + 7e5*rng.Float64())
	}
}

// recordSettled runs two recording passes and requires the second to have
// armed. Two are needed for a replayable record: entries fingerprint each
// thread's affinity at window start, and fresh threads only acquire one on
// their first placement — the sim's warmup ticks do the same settling.
func recordSettled(t *testing.T, m *Memo, cpu *soc.CPU, threads []*Thread, poolSec float64, pr Pressure) {
	t.Helper()
	var s Scheduler
	busy := make([]float64, cpu.NumCores())
	for pass := 0; pass < 2; pass++ {
		if _, err := s.ScheduleRecordInto(m, memoSatRate(), busy, nil, cpu, threads, time.Millisecond, poolSec, pr); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Armed() {
		t.Fatal("recording pass did not arm the memo")
	}
}

func boolvec(vals ...bool) []bool { return vals }

// TestMemoMatchInvalidation walks the input fingerprint one axis at a time:
// each case records a window, perturbs exactly one matching precondition, and
// checks Match's verdict.
func TestMemoMatchInvalidation(t *testing.T) {
	pendings := []float64{4e12, 3e12, 2e12, 1e12}
	zero := Pressure{}
	cases := []struct {
		name    string
		recPool float64
		recPr   Pressure
		mutate  func(t *testing.T, threads []*Thread) []*Thread
		pool    float64
		pr      Pressure
		want    bool
	}{
		{"unchanged inputs replay", Unlimited, zero, nil, Unlimited, zero, true},
		{"exact pool headroom boundary replays", 0.05, zero, nil, 0.005, zero, true},
		{"pool below recorded use plus window", 0.05, zero, nil, 0.0049, zero, false},
		{"unlimited record vs finite pool", Unlimited, zero, nil, 1.0, zero, false},
		{"finite record vs unlimited pool", 0.05, zero, nil, Unlimited, zero, false},
		{"thermal cap engages", Unlimited, Pressure{Capped: boolvec(false, false, false, false)},
			nil, Unlimited, Pressure{Capped: boolvec(true, false, false, false)}, false},
		{"cap scale moves", Unlimited, Pressure{Capped: boolvec(true, true, false, false), CapScale: []float64{0.8, 0.8, 1, 1}},
			nil, Unlimited, Pressure{Capped: boolvec(true, true, false, false), CapScale: []float64{0.7, 0.7, 1, 1}}, false},
		{"matching generation skips element compare", Unlimited, Pressure{Capped: boolvec(false, false, false, false), Gen: 7},
			nil, Unlimited, Pressure{Capped: boolvec(true, false, false, false), Gen: 7}, true},
		{"stale generation falls back to elements", Unlimited, Pressure{Capped: boolvec(false, false, false, false), Gen: 7},
			nil, Unlimited, Pressure{Capped: boolvec(false, false, false, false), Gen: 8}, true},
		{"desaturation", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			threads[0].DropWork(threads[0].Pending() - 1)
			return threads
		}, Unlimited, zero, false},
		{"affinity migration", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			// One cycle on a different core: debt stays saturated and the
			// order stands, only the placement input moved.
			th := threads[0]
			th.Execute(1, (th.LastCore()+1)%4)
			return threads
		}, Unlimited, zero, false},
		{"debt order flips", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			threads[3].AddWork(1.5e12) // overtakes threads[2], both stay saturated
			return threads
		}, Unlimited, zero, false},
		{"new runnable thread", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			th := NewThread("t9")
			th.AddWork(5e12)
			return append(threads, th)
		}, Unlimited, zero, false},
		{"thread drains away", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			threads[3].DropWork(threads[3].Pending())
			return threads
		}, Unlimited, zero, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cpu, threads := memoFixture(t, pendings)
			var m Memo
			recordSettled(t, &m, cpu, threads, tc.recPool, tc.recPr)
			if tc.mutate != nil {
				threads = tc.mutate(t, threads)
			}
			got := m.Match(threads, false, tc.pool, tc.pr) >= 0
			if got != tc.want {
				t.Errorf("Match = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMemoDrainedRegime covers the starved-pool windows: they replay only
// while the pool is exactly empty and backlog remains.
func TestMemoDrainedRegime(t *testing.T) {
	cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
	var m Memo
	recordSettled(t, &m, cpu, threads, 0, Pressure{})
	if idx := m.Match(threads, false, 0, Pressure{}); idx < 0 {
		t.Fatal("empty pool should replay the drained window")
	}
	if idx := m.Match(threads, false, 0.001, Pressure{}); idx >= 0 {
		t.Error("replenished pool must not replay a drained window")
	}
	for _, th := range threads {
		th.DropWork(th.Pending())
	}
	if idx := m.Match(threads, false, 0, Pressure{}); idx >= 0 {
		t.Error("drained window must not replay once no thread is runnable")
	}
}

// TestMemoSteadyStreakTrust pins the steady-hint semantics: an unbroken
// streak of steady windows lets a slot verified before the streak skip the
// runnable-set scan, and one broken window retires that trust until the slot
// is re-proven the slow way.
func TestMemoSteadyStreakTrust(t *testing.T) {
	cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
	var m Memo
	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})

	if idx := m.Match(threads, true, Unlimited, Pressure{}); idx < 0 {
		t.Fatal("steady window immediately after record should replay")
	}

	// The steady hint is authoritative by contract: while the streak holds,
	// the set comparison is skipped entirely, so an extra runnable thread the
	// hint (wrongly) vouches absent goes unnoticed. This is exactly why the
	// simulation only raises the hint from workloads that implement it.
	extra := NewThread("t9")
	extra.AddWork(5e12)
	grown := append(append([]*Thread(nil), threads...), extra)
	if idx := m.Match(grown, true, Unlimited, Pressure{}); idx < 0 {
		t.Fatal("steady streak should skip the set scan")
	}

	// One non-steady window breaks the streak and forces the counting scan,
	// which sees five runnable threads against four entries.
	if idx := m.Match(grown, false, Unlimited, Pressure{}); idx >= 0 {
		t.Fatal("broken streak must fall back to the set scan and miss")
	}

	// A fresh steady window does not resurrect the old trust: the slot was
	// last verified before this streak began, so the scan still runs.
	if idx := m.Match(grown, true, Unlimited, Pressure{}); idx >= 0 {
		t.Fatal("trust must not survive a broken streak without re-verification")
	}

	// Back at the recorded population the scan proves the set again, and the
	// match re-verifies the slot for future streaks.
	if idx := m.Match(threads, true, Unlimited, Pressure{}); idx < 0 {
		t.Fatal("restored population should match via the full scan")
	}
}

// TestMemoInvalidateAndRecycle checks the two reset paths: Invalidate drops
// retained windows in place, Recycle returns a fresh memo that records again.
func TestMemoInvalidateAndRecycle(t *testing.T) {
	cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
	var m Memo
	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
	m.Invalidate()
	if m.Armed() {
		t.Error("Invalidate should disarm the memo")
	}
	if idx := m.Match(threads, false, Unlimited, Pressure{}); idx >= 0 {
		t.Error("invalidated memo must not match")
	}

	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
	m = m.Recycle()
	if m.Armed() {
		t.Error("Recycle should return a disarmed memo")
	}
	if idx := m.Match(threads, false, Unlimited, Pressure{}); idx >= 0 {
		t.Error("recycled memo must not match")
	}
	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
	if idx := m.Match(threads, false, Unlimited, Pressure{}); idx < 0 {
		t.Error("recycled memo should record and replay again")
	}
}
