package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// frameSource is the game statistics surface fleet type-asserts on a
// cell's workloads to fill the FPS columns.
type frameSource interface {
	AvgFPS() float64
	DropRate() float64
}

// clock accumulates the host time the wrapped layers spend inside one
// traced pass. The traced pass is serial, so no synchronization is needed.
type clock struct {
	tickNS, ticks     int64 // Workload.Tick
	decideNS, decides int64 // Manager.Decide
	byPolicy          map[string]*span
	byPlatformPolicy  map[string]*span
}

// span is a call count and its summed duration.
type span struct{ ns, n int64 }

func newClock() *clock {
	return &clock{byPolicy: map[string]*span{}, byPlatformPolicy: map[string]*span{}}
}

// spanOf returns m's span for key, adding it on first use.
func spanOf(m map[string]*span, key string) *span {
	s := m[key]
	if s == nil {
		s = &span{}
		m[key] = s
	}
	return s
}

// tracedWorkload times Workload.Tick.
type tracedWorkload struct {
	workload.Workload
	clk *clock
}

func (w *tracedWorkload) Tick(now, dt time.Duration, rng *rand.Rand) {
	t0 := time.Now()
	w.Workload.Tick(now, dt, rng)
	w.clk.tickNS += int64(time.Since(t0))
	w.clk.ticks++
}

// wrapWorkload times w's Tick while exposing exactly the optional
// interfaces w implements: the engine enables its steady-hint fast path
// only for SteadyHinters, and fleet fills the FPS columns only for frame
// sources, so adding or dropping either would change what is measured.
func wrapWorkload(w workload.Workload, clk *clock) workload.Workload {
	t := &tracedWorkload{Workload: w, clk: clk}
	h, hinted := w.(workload.SteadyHinter)
	f, framed := w.(frameSource)
	switch {
	case hinted && framed:
		return struct {
			*tracedWorkload
			workload.SteadyHinter
			frameSource
		}{t, h, f}
	case hinted:
		return struct {
			*tracedWorkload
			workload.SteadyHinter
		}{t, h}
	case framed:
		return struct {
			*tracedWorkload
			frameSource
		}{t, f}
	}
	return t
}

// tracedManager times Manager.Decide per policy and per platform.policy.
type tracedManager struct {
	policy.Manager
	clk          *clock
	pol, platPol *span
}

func (m *tracedManager) Decide(in policy.Input) (policy.Decision, error) {
	t0 := time.Now()
	d, err := m.Manager.Decide(in)
	ns := int64(time.Since(t0))
	m.clk.decideNS += ns
	m.clk.decides++
	m.pol.ns += ns
	m.pol.n++
	m.platPol.ns += ns
	m.platPol.n++
	return d, err
}

// cellRun is one serially executed cell: its report condensed exactly as
// the fleet store condenses it, the engine's fast-path tick count, and (for
// untraced cells) its host time.
type cellRun struct {
	rec       store.Record
	fastTicks uint64
	ticks     uint64
	wall      time.Duration
}

// tickOf is the cell's integration step with the engine default applied.
func tickOf(c fleet.Cell) time.Duration {
	if c.Tick == 0 {
		return time.Millisecond
	}
	return c.Tick
}

// session lowers a fleet cell to the engine's session description with
// fresh manager and workload instances — the same lowering fleet.Run uses.
func session(c fleet.Cell) (sim.SessionSpec, error) {
	mgr, err := c.Policy.New(c.Platform)
	if err != nil {
		return sim.SessionSpec{}, err
	}
	wls, err := c.Workload.New()
	if err != nil {
		return sim.SessionSpec{}, err
	}
	return sim.SessionSpec{
		Platform:     c.Platform,
		Manager:      mgr,
		Workloads:    wls,
		Duration:     c.Duration,
		UntilDone:    c.UntilDone,
		Seed:         c.Seed,
		Placer:       c.Placer,
		Tick:         c.Tick,
		SamplePeriod: c.SamplePeriod,
		NoFuse:       c.NoFuse,
	}, nil
}

// record condenses a session report the way the fleet store does, keyed
// like the stored record it must reproduce.
func record(key store.Record, rep *sim.Report, wls []workload.Workload) store.Record {
	rec := store.Record{
		Key:               key.Key,
		Identity:          key.Identity,
		Finished:          true,
		ElapsedNS:         int64(rep.Duration),
		AvgPowerW:         rep.AvgPowerW,
		PeakPowerW:        rep.PeakPowerW,
		EnergyJ:           rep.EnergyJ,
		AvgFreqHz:         rep.AvgFreqHz,
		AvgOnlineCores:    rep.AvgOnlineCores,
		AvgUtil:           rep.AvgUtil,
		AvgQuota:          rep.AvgQuota,
		AvgTempC:          rep.AvgTempC,
		MaxTempC:          rep.MaxTempC,
		ExecutedCycles:    rep.ExecutedCycles,
		QuotaThrottledSec: rep.QuotaThrottledSec,
		ThermalCappedSec:  rep.ThermalCappedSec,
	}
	for _, w := range wls {
		if fs, ok := w.(frameSource); ok {
			rec.HasFrames, rec.AvgFPS, rec.DropRate = true, fs.AvgFPS(), fs.DropRate()
			break
		}
	}
	return rec
}

// sameRecord reports whether two records are bit-identical: JSON encodes
// every float64 in its shortest round-trip form, so equal bytes mean equal
// bits, and a NaN fails to encode at all.
func sameRecord(a, b store.Record) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// runReference executes every cell serially and untraced — the same
// session run fleet performs — as the baseline the traced pass is
// compared against, in time and in output.
func runReference(cells []fleet.Cell, refs []store.Record) ([]cellRun, error) {
	arena := sim.NewArena()
	out := make([]cellRun, len(cells))
	for i, c := range cells {
		ss, err := session(c)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := ss.NewIn(arena)
		if err != nil {
			return nil, err
		}
		rep, err := s.Run(c.Duration)
		if err != nil {
			return nil, err
		}
		out[i] = cellRun{
			rec:       record(refs[i], rep, ss.Workloads),
			fastTicks: s.FastTicks(),
			ticks:     uint64(c.Duration / tickOf(c)),
			wall:      time.Since(t0),
		}
	}
	return out, nil
}

// layerTimes is what the traced passes measured, summed over their cells.
type layerTimes struct {
	clk               *clock
	newNS, news       int64
	fastNS, fastTicks int64 // self time of Step on fast-path ticks
	slowNS, slowTicks int64 // self time of Step on full-path ticks
	sessionNS         int64 // NewIn + every Step, per cell, summed
}

// runTraced executes every cell serially with Workload.Tick and
// Manager.Decide wrapped and every Step timed. Each Step's self time —
// its duration minus the Tick and Decide time inside it — is booked as a
// fast tick when the engine's FastTicks counter advanced, else as a slow
// one. The last tick runs through Sim.Run, which returns the report. The
// times add to lt.
func runTraced(cells []fleet.Cell, refs []store.Record, aliases map[string]string, lt *layerTimes) ([]cellRun, error) {
	clk := lt.clk
	arena := sim.NewArena()
	out := make([]cellRun, len(cells))
	for i, c := range cells {
		ss, err := session(c)
		if err != nil {
			return nil, err
		}
		pol, plat := c.Policy.Name, aliases[c.Platform.Name]
		ss.Manager = &tracedManager{
			Manager: ss.Manager, clk: clk,
			pol:     spanOf(clk.byPolicy, pol),
			platPol: spanOf(clk.byPlatformPolicy, plat+"."+pol),
		}
		for j, w := range ss.Workloads {
			ss.Workloads[j] = wrapWorkload(w, clk)
		}

		t0 := time.Now()
		s, err := ss.NewIn(arena)
		if err != nil {
			return nil, err
		}
		newNS := int64(time.Since(t0))
		lt.newNS += newNS
		lt.news++
		sessNS := newNS

		tick := tickOf(c)
		for s.Now() < c.Duration-tick {
			fast0, child0 := s.FastTicks(), clk.tickNS+clk.decideNS
			st := time.Now()
			if err := s.Step(); err != nil {
				return nil, err
			}
			ns := int64(time.Since(st))
			sessNS += ns
			self := ns - (clk.tickNS + clk.decideNS - child0)
			if s.FastTicks() > fast0 {
				lt.fastNS += self
				lt.fastTicks++
			} else {
				lt.slowNS += self
				lt.slowTicks++
			}
		}
		st := time.Now()
		rep, err := s.Run(tick)
		if err != nil {
			return nil, err
		}
		sessNS += int64(time.Since(st))
		lt.sessionNS += sessNS
		out[i] = cellRun{
			rec:       record(refs[i], rep, ss.Workloads),
			fastTicks: s.FastTicks(),
			ticks:     uint64(c.Duration / tick),
		}
	}
	return out, nil
}

// platformAliases maps each platform display name to its CLI alias, for
// metric names.
func platformAliases() map[string]string {
	out := map[string]string{}
	for alias, f := range platform.Profiles() {
		out[f().Name] = alias
	}
	return out
}

// compareRuns counts the cells of got that differ from the stored records
// or from the reference run's fast-path tick counts, describing the first.
func compareRuns(got, ref []cellRun, refs []store.Record) (failed int, first string) {
	for i := range got {
		var why string
		switch {
		case !sameRecord(got[i].rec, refs[i]):
			why = "report differs from the stored record"
		case got[i].fastTicks != ref[i].fastTicks:
			why = fmt.Sprintf("fast ticks %d, untraced %d", got[i].fastTicks, ref[i].fastTicks)
		case cellProblem(got[i].rec.EnergyJ, got[i].rec.AvgUtil) != "":
			why = cellProblem(got[i].rec.EnergyJ, got[i].rec.AvgUtil)
		}
		if why != "" {
			if failed == 0 {
				first = fmt.Sprintf("cell %d (%s/%s/%s seed %d): %s", i, refs[i].Platform, refs[i].Policy, refs[i].Placer, refs[i].Seed, why)
			}
			failed++
		}
	}
	return failed, first
}
