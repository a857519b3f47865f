package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
	"mobicore/internal/metrics"
)

// warmupSession caps the simulated length of the warm-up matrix.
const warmupSession = 2 * time.Second

// prepare resolves the workload's matrix and runs a short warm-up of it —
// every platform, policy and placer once, on the first seed — so lazy
// per-platform state is built before anything is timed. It returns the
// spec the timed passes run.
func prepare(ctx context.Context, wl benchWorkload, o options) (fleet.Spec, error) {
	seeds := wl.seeds(o.seed)
	spec, err := wl.spec(seeds, o.session)
	if err != nil {
		return fleet.Spec{}, err
	}
	warm := spec
	warm.Seeds = seeds[:1]
	warm.Duration = min(warmupSession, o.session)
	if _, err := fleet.Run(ctx, warm); err != nil {
		return fleet.Spec{}, fmt.Errorf("warm-up: %w", err)
	}
	return spec, nil
}

// withCI formats the mean and its 95% confidence interval over the
// repetitions in vals.
func withCI(vals []float64) string {
	ci, err := metrics.MeanCI(vals, 0.95)
	if err != nil {
		return ""
	}
	mean := (ci.Lo + ci.Hi) / 2
	return fmt.Sprintf("  (median of %d; mean %.4g ± %.2g, 95%% CI)", len(vals), mean, ci.HalfWidth())
}

// endToEndRun runs the matrix through fleet.Run in timed passes until
// o.seconds have passed (at least two), checking every pass. Set-up is
// timed first from o.start to the first pass, then again in-process after
// every pass.
func endToEndRun(ctx context.Context, wl benchWorkload, o options, work string, stdout io.Writer, out *outcome) error {
	spec, err := prepare(ctx, wl, o)
	if err != nil {
		return err
	}
	setups := []float64{time.Since(o.start).Seconds()}
	fmt.Fprintf(stdout, "setup from process start: %.3fs\n", setups[0])
	var first pass
	var cellsPerS, cpuMS, allocKB []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < time.Duration(o.seconds*float64(time.Second)); i++ {
		p, err := runPass(ctx, spec, filepath.Join(work, "store"))
		if err != nil {
			return err
		}
		out.attempted += p.cells
		if p.failed > 0 {
			out.fail(p.failed, "pass %d: %d cells fail the output checks", i, p.failed)
		}
		if i == 0 {
			first = p
		} else if p.sha != first.sha {
			out.fail(p.cells, "pass %d: cells.jsonl differs from pass 0", i)
		}
		n := float64(p.cells)
		cellsPerS = append(cellsPerS, n/p.wall.Seconds())
		cpuMS = append(cpuMS, float64(p.cpu)/1e6/n)
		allocKB = append(allocKB, float64(p.alloc)/1024/n)
		t0 := time.Now()
		if _, err := prepare(ctx, wl, o); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(stdout, "pass %d: cells=%d wall=%.3fs cpu=%.3fs setup=%.3fs cells.jsonl sha256=%s\n",
			i, p.cells, p.wall.Seconds(), p.cpu.Seconds(), setups[len(setups)-1], p.sha)
	}
	saving, ok := mobicoreSaving(first.res)
	if !ok {
		return fmt.Errorf("workload %s pairs no mobicore cell with android-default", wl.name)
	}
	out.metrics = append(out.metrics,
		metric{name: "cells_per_s", unit: "cells/s", value: median(cellsPerS), note: withCI(cellsPerS)},
		metric{name: "cpu_ms_per_cell", unit: "ms", value: median(cpuMS), note: withCI(cpuMS)},
		metric{name: "alloc_kb_per_cell", unit: "KiB", value: median(allocKB), note: withCI(allocKB)},
		metric{name: "setup_s", unit: "s", value: median(setups), note: withCI(setups)},
		metric{name: "mobicore_saving_pct", unit: "%", value: saving},
		metric{name: "failed_frac", unit: "ratio", value: float64(out.failed) / float64(out.attempted)},
	)
	return nil
}

// tracedRun runs one untraced fleet pass as the reference store, times the
// store and report paths on it, then alternates untraced and traced serial
// passes over the same cells until o.seconds have passed (at least one
// each), checking every cell against the stored record.
func tracedRun(ctx context.Context, wl benchWorkload, o options, work string, stdout io.Writer, out *outcome) error {
	spec, err := prepare(ctx, wl, o)
	if err != nil {
		return err
	}
	dir := filepath.Join(work, "store")
	p, err := runPass(ctx, spec, dir)
	if err != nil {
		return err
	}
	out.attempted += p.cells
	if p.failed > 0 {
		out.fail(p.failed, "fleet pass: %d cells fail the output checks", p.failed)
	}
	fmt.Fprintf(stdout, "fleet pass: cells=%d wall=%.3fs cells.jsonl sha256=%s\n", p.cells, p.wall.Seconds(), p.sha)
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	refs, err := storedRecords(dir, p.res, len(cells))
	if err != nil {
		return err
	}
	readMetrics, err := readPath(ctx, spec, dir, filepath.Join(work, "scratch"))
	if err != nil {
		return err
	}

	aliases := platformAliases()
	lt := layerTimes{clk: newClock()}
	var refWall, traceWall, cellMS []float64
	var fast, ticks uint64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < time.Duration(o.seconds*float64(time.Second)); i++ {
		runtime.GC()
		t0 := time.Now()
		ref, err := runReference(cells, refs)
		if err != nil {
			return err
		}
		refWall = append(refWall, time.Since(t0).Seconds())
		runtime.GC()
		t0 = time.Now()
		got, err := runTraced(cells, refs, aliases, &lt)
		if err != nil {
			return err
		}
		traceWall = append(traceWall, time.Since(t0).Seconds())
		out.attempted += 2 * len(cells)
		// The untraced pass answers to the store alone; the traced one also
		// to the untraced pass's fast-tick counts.
		if n, why := compareRuns(ref, ref, refs); n > 0 {
			out.fail(n, "untraced serial pass %d: %s", i, why)
		}
		if n, why := compareRuns(got, ref, refs); n > 0 {
			out.fail(n, "traced pass %d: %s", i, why)
		}
		for j := range got {
			fast += got[j].fastTicks
			ticks += got[j].ticks
			cellMS = append(cellMS, float64(ref[j].wall)/1e6)
		}
		fmt.Fprintf(stdout, "serial pass %d: untraced %.3fs traced %.3fs\n", i, refWall[i], traceWall[i])
	}

	clk := lt.clk
	perUS := func(s span) float64 { return float64(s.ns) / 1e3 / float64(max(s.n, 1)) }
	p50, _ := metrics.PercentileOf(cellMS, 50)
	p95, _ := metrics.PercentileOf(cellMS, 95)
	out.metrics = append(out.metrics,
		metric{name: "sim.step_fast_ns", unit: "ns", value: float64(lt.fastNS) / float64(max(lt.fastTicks, 1)),
			note: fmt.Sprintf("  (%d ticks)", lt.fastTicks)},
		metric{name: "sim.step_slow_ns", unit: "ns", value: float64(lt.slowNS) / float64(max(lt.slowTicks, 1)),
			note: fmt.Sprintf("  (%d ticks)", lt.slowTicks)},
		metric{name: "sim.fast_tick_frac", unit: "ratio", value: float64(fast) / float64(ticks),
			note: fmt.Sprintf("  (%d of %d ticks)", fast, ticks)},
		metric{name: "sim.new_us", unit: "us", value: float64(lt.newNS) / 1e3 / float64(max(lt.news, 1))},
		metric{name: "sim.cell_ms_p50", unit: "ms", value: p50, note: fmt.Sprintf("  (%d cells)", len(cellMS))},
		metric{name: "sim.cell_ms_p95", unit: "ms", value: p95, note: fmt.Sprintf("  (%d cells)", len(cellMS))},
		metric{name: "workload.tick_ns", unit: "ns", value: float64(clk.tickNS) / float64(max(clk.ticks, 1))},
		metric{name: "policy.decide_us", unit: "us", value: perUS(span{clk.decideNS, clk.decides}),
			note: fmt.Sprintf("  (%d calls)", clk.decides)},
	)
	for _, m := range []map[string]*span{clk.byPolicy, clk.byPlatformPolicy} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out.metrics = append(out.metrics, metric{name: "policy.decide_us." + k, unit: "us", value: perUS(*m[k]),
				note: fmt.Sprintf("  (%d calls)", m[k].n)})
		}
	}
	out.metrics = append(out.metrics,
		metric{name: "policy.decide_frac", unit: "ratio", value: float64(clk.decideNS) / float64(lt.sessionNS)})
	out.metrics = append(out.metrics, readMetrics...)
	out.metrics = append(out.metrics,
		metric{name: "trace.overhead_frac", unit: "ratio", value: median(traceWall)/median(refWall) - 1,
			note: fmt.Sprintf("  (%d pass pairs)", len(refWall))})
	return nil
}

// storedRecords returns the store record of every cell of an untraced
// pass, in Spec.Cells order.
func storedRecords(dir string, res *fleet.Result, n int) ([]store.Record, error) {
	if len(res.Cells) != n {
		return nil, fmt.Errorf("fleet pass returned %d of %d cells", len(res.Cells), n)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := make([]store.Record, n)
	for i, c := range res.Cells {
		rec, ok := st.Get(c.Key)
		if !ok || c.Index != i {
			return nil, fmt.Errorf("cell %d (%s) is not in the store", i, c.Key)
		}
		out[i] = rec
	}
	return out, nil
}
