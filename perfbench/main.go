// Command perfbench is the repository's benchmark: it runs one named study
// matrix through fleet.Run, checks the outputs, and prints every metric by
// name and unit, ending with one JSON line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload scenario-fleet --seed 1 --seconds 30 --trace 0
//
// run.sh builds the binary into .bench_build and runs it with the same
// flags. --seed draws the matrix seeds, so equal seeds run equal cells.
// --seconds bounds the timed passes. --trace 0 reports the end-to-end
// metrics and --trace 1 the per-layer ones. Every pass uses 30 s simulated
// sessions, a fleet worker pool of 2, one process and a fresh result store.
// One pass covers 4 seeds of scenario-fleet (256 cells), 2 of noisy-fleet
// (48 cells) or 2 of oracle-study (24 cells).
//
// # Workloads
//
//   - scenario-fleet: the day-in-the-life scenario (generator mode) on all
//     8 platforms × {mobicore, android-default, schedutil+load,
//     interactive+mpdecision} × {greedy, eas}. The memo replays most ticks
//     and no oracle runs, so memo, RunBatch-lock, Welford and skip-ahead
//     changes show here.
//   - noisy-fleet: a 4-thread sinusoid (1.2e9 cycles/s, amplitude 0.6,
//     period 2 s, noise 0.2) on nexus5, nexus6p and sd855 × the same
//     policies and placers. Per-tick random demand defeats the memo, so
//     nearly every tick takes the full ScheduleRecordInto + power +
//     thermal path. A replay-only optimisation should not move it; a
//     costlier memo miss shows as a regression.
//   - oracle-study: day-in-the-life on nexus6p and sd855 × {oracle,
//     mobicore, android-default} × both placers. The exhaustive joint
//     (cores × OPP) oracle search takes almost all session time: the
//     branch-and-bound target.
//
// # End-to-end metrics (--trace 0)
//
//   - cells_per_s (cells/s, higher): cells ÷ wall time of the fleet.Run
//     pass, store flush included.
//   - cpu_ms_per_cell (ms, lower): process user+sys CPU ÷ cells.
//   - alloc_kb_per_cell (KiB, lower): bytes allocated over the pass ÷
//     cells.
//   - setup_s (s, lower): set-up time — platform and policy resolution
//     plus a short warm-up matrix. The first sample runs from process
//     start to the first timed pass; set-up is then repeated and timed
//     in-process after every pass, so that its samples see the host as
//     the passes do. Those repeats find the process-wide compiled-platform
//     cache warm.
//
// The host metrics are medians over the timed passes (every pass is timed;
// the warm-up comes before the first) and over the set-up samples, printed
// with the mean's 95% confidence interval. Two more lines are printed but
// left out of the JSON line:
//
//   - failed_frac (ratio, lower): failed ÷ attempted cells. It is 0 on a
//     correct run; the JSON line carries it as failed and attempted.
//   - mobicore_saving_pct (%, higher): MobiCore's mean paired energy saving
//     over android-default in matched (platform, placer, seed) cells. It is
//     simulated output, a pure function of the seed: a speed-only change
//     must leave it bit-identical for the same seed. Across seeds it swings
//     widely and can be negative, so no bound relative to a median fits it.
//     None of these workloads reproduces a paper figure, so the model is
//     unvalidated here and no error figure is given.
//
// Every pass of a run must write a byte-identical cells.jsonl (its SHA-256
// is printed), and every cell needs a finite, positive EnergyJ and an
// AvgUtil in [0,1]. A violation counts the cells as failed and the command
// exits 1.
//
// # Per-layer metrics (--trace 1)
//
// The traced pass re-runs Spec.Cells() serially through
// sim.SessionSpec.NewIn, Sim.Step per tick and Sim.Run for the last tick,
// with policy.Manager.Decide and workload.Workload.Tick wrapped. It
// alternates with an untraced serial pass of the same cells, and every
// cell of both must reproduce the untraced fleet pass's store record bit
// for bit. Each per-layer metric, with its layer, the end-to-end metric it
// should move and the workload it should move on:
//
//	sim.step_fast_ns        sim + memo replay     cells_per_s, cpu_ms_per_cell  scenario-fleet; not noisy-fleet
//	sim.step_slow_ns        sched slow path,      cells_per_s                   noisy-fleet; little on scenario-fleet
//	                        power, thermal
//	sim.fast_tick_frac      sched memo            cells_per_s                   scenario-fleet
//	sim.new_us              sim construction      alloc_kb_per_cell             scenario-fleet
//	sim.cell_ms_p50/p95     per-cell host time    cells_per_s                   scenario-fleet
//	workload.tick_ns        workload / scenario   cells_per_s                   scenario-fleet
//	policy.decide_us[.<p>]  policy / core         cells_per_s, cpu_ms_per_cell  oracle-study; none elsewhere
//	policy.decide_frac      policy / core         cells_per_s, cpu_ms_per_cell  oracle-study
//	store.flush_ms          fleet/store write     cells_per_s                   scenario-fleet
//	store.open_ms           fleet/store read      none (read path)              all
//	store.bytes_per_cell    fleet/store format    cells_per_s                   scenario-fleet
//	fleet.resume_ms         fleet resume          none (read path)              all
//	fleet.report_ms         fleet aggregation     none (read path)              all
//	fleet.diff_ms           fleet diff            none (read path)              all
//	trace.overhead_frac     the benchmark         none                          all
//
// fleet.resume_ms is fleet.Run with Resume on the pass's full store (zero
// sessions run), fleet.report_ms is LoadStoreResult + WriteText +
// WriteCSV, and fleet.diff_ms a store diffed against itself.
//
// Step times are self times: a Step's duration minus the Tick and Decide
// time inside it. A tick is fast when the engine's FastTicks counter
// advanced over it. sim.cell_ms_p50/p95 come from the untraced serial
// cells. The printed lines add Decide times for every policy and every
// platform.policy pair, which the JSON line leaves out because not every
// workload runs every policy.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	note       string // printed after the value, e.g. the CI
}

// metricDef names a metric the JSON line must carry.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of the JSON line under --trace 0
// and --trace 1, in the order BENCHMARK.json lists them.
var (
	endToEnd = []metricDef{
		{"cells_per_s", "cells/s"},
		{"cpu_ms_per_cell", "ms"},
		{"alloc_kb_per_cell", "KiB"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"sim.step_fast_ns", "ns"},
		{"sim.step_slow_ns", "ns"},
		{"sim.fast_tick_frac", "ratio"},
		{"sim.new_us", "us"},
		{"sim.cell_ms_p50", "ms"},
		{"sim.cell_ms_p95", "ms"},
		{"workload.tick_ns", "ns"},
		{"policy.decide_us", "us"},
		{"policy.decide_us.mobicore", "us"},
		{"policy.decide_us.android-default", "us"},
		{"policy.decide_frac", "ratio"},
		{"store.flush_ms", "ms"},
		{"store.open_ms", "ms"},
		{"store.bytes_per_cell", "B"},
		{"fleet.resume_ms", "ms"},
		{"fleet.report_ms", "ms"},
		{"fleet.diff_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}
)

// options are one run's settings: the command's flags, plus the session
// length and the start time, which the command fixes and the tests set.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	dir      string
	session  time.Duration // simulated length of every cell
	start    time.Time     // setup_s counts from here
}

// outcome is what a run measured and checked.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(cells int, format string, args ...any) {
	o.failed += cells
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// started is the process's start as the benchmark sees it: package
// initialisation, just before main.
var started = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: scenario-fleet, noisy-fleet, oracle-study")
	fs.Int64Var(&o.seed, "seed", 1, "seed the matrix seeds are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed passes run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer pass")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for result stores, emptied of them on exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	o.session, o.start = sessionLength, started
	return o, nil
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return runWith(o, stdout, stderr)
}

// runWith runs the benchmark with parsed options; it returns the exit
// code.
func runWith(o options, stdout, stderr io.Writer) int {
	wl, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx := context.Background()
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(o.dir, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d session=%v parallel=%d\n",
		wl.name, o.seed, o.seconds, o.trace, o.session, parallel)
	fmt.Fprintf(stdout, "machine: GOMAXPROCS=%d NumCPU=%d go=%s %s/%s cpu=%q\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())

	var out outcome
	var want []metricDef
	if o.trace == 1 {
		want = perLayer
		err = tracedRun(ctx, wl, o, work, stdout, &out)
	} else {
		want = endToEnd
		err = endToEndRun(ctx, wl, o, work, stdout, &out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	return report(stdout, stderr, out, want)
}

// report prints the metric lines and the JSON line; it returns the exit
// code: 1 when a check failed or a wanted metric is missing.
func report(stdout, stderr io.Writer, out outcome, want []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range out.metrics {
		fmt.Fprintf(stdout, "metric %s = %s %s%s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.note)
		byName[m.name] = m
	}
	correct := out.failed == 0 && out.attempted > 0
	js := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, d := range want {
		m, ok := byName[d.name]
		if !ok || m.unit != d.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s missing or not finite\n", d.name)
			correct = false
			continue
		}
		js.Metrics[d.name] = value{m.value, m.unit}
	}
	js.Correct = correct
	b, err := json.Marshal(js)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name for the machine fingerprint.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
