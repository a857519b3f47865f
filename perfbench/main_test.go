package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobicore/internal/sched"
	"mobicore/internal/workload"
)

// tinySession keeps the test matrices cheap: every cell still runs, for
// one simulated second.
const tinySession = time.Second

// TestSmoke runs every workload on its tiny matrix in both modes and
// checks that each declared metric is printed with its unit and a finite
// value, and that the JSON line reports a correct run.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads() {
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			t.Run(wl.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				o := options{workload: wl.name, seed: 3, trace: trace, dir: t.TempDir(),
					session: tinySession, start: time.Now()}
				if code := runWith(o, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				printed := map[string]string{}
				for _, l := range lines {
					if f := strings.Fields(l); len(f) >= 5 && f[0] == "metric" && f[2] == "=" {
						v, err := strconv.ParseFloat(f[3], 64)
						if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("metric %s: value %q is not finite", f[1], f[3])
						}
						printed[f[1]] = f[4]
					}
				}
				var js struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !js.Correct || js.Failed != 0 || js.Attempted == 0 {
					t.Errorf("result: correct=%v attempted=%d failed=%d", js.Correct, js.Attempted, js.Failed)
				}
				if len(js.Metrics) != len(want) {
					t.Errorf("JSON carries %d metrics, want %d", len(js.Metrics), len(want))
				}
				for _, d := range want {
					if unit, ok := printed[d.name]; !ok || unit != d.unit {
						t.Errorf("metric %s printed with unit %q (printed: %v), want %q", d.name, unit, ok, d.unit)
					}
					if m, ok := js.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("JSON metric %s = %+v, want unit %q", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// TestFlags checks that the command refuses bad flags, including a
// session length, which it fixes.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "noisy-fleet", "--trace", "2"},
		{"--workload", "noisy-fleet", "--session", "1s"},
		{"--workload", "noisy-fleet", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}

// TestTracedMatchesUntraced checks that wrapping the layers changes
// nothing the engine computes: on every workload, the traced serial pass
// and the untraced one reproduce the fleet pass's store records bit for
// bit and take the memo fast path on exactly the same ticks.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloads() {
		t.Run(wl.name, func(t *testing.T) {
			spec, err := wl.spec(wl.seeds(5), tinySession)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "store")
			p, err := runPass(ctx, spec, dir)
			if err != nil || p.failed != 0 {
				t.Fatalf("fleet pass: failed=%d err=%v", p.failed, err)
			}
			cells, err := spec.Cells()
			if err != nil {
				t.Fatal(err)
			}
			refs, err := storedRecords(dir, p.res, len(cells))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runReference(cells, refs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runTraced(cells, refs, platformAliases(), &layerTimes{clk: newClock()})
			if err != nil {
				t.Fatal(err)
			}
			var fastRef, fastGot uint64
			for i := range cells {
				if !sameRecord(ref[i].rec, refs[i]) {
					t.Errorf("cell %d: untraced report differs from the store:\n got %+v\nwant %+v", i, ref[i].rec, refs[i])
				}
				if !sameRecord(got[i].rec, refs[i]) {
					t.Errorf("cell %d: traced report differs from the store:\n got %+v\nwant %+v", i, got[i].rec, refs[i])
				}
				fastRef += ref[i].fastTicks
				fastGot += got[i].fastTicks
			}
			if fastGot != fastRef || fastRef == 0 {
				t.Errorf("fast ticks: traced %d, untraced %d (want equal and nonzero)", fastGot, fastRef)
			}
		})
	}
}

// fakeWorkload is a minimal Workload; hinted and framed add the optional
// surfaces the tracing wrapper must forward.
type fakeWorkload struct{}

func (fakeWorkload) Name() string                             { return "fake" }
func (fakeWorkload) Tick(now, dt time.Duration, _ *rand.Rand) {}
func (fakeWorkload) Threads() []*sched.Thread                 { return nil }
func (fakeWorkload) Done() bool                               { return false }

type hinted struct{ fakeWorkload }

func (hinted) SteadyHint() bool { return true }

type framed struct{ fakeWorkload }

func (framed) AvgFPS() float64   { return 60 }
func (framed) DropRate() float64 { return 0.25 }

type hintedFramed struct{ framed }

func (hintedFramed) SteadyHint() bool { return false }

func TestWrapWorkloadForwardsOptionalInterfaces(t *testing.T) {
	for _, w := range []workload.Workload{fakeWorkload{}, hinted{}, framed{}, hintedFramed{}} {
		clk := newClock()
		got := wrapWorkload(w, clk)
		_, wantHint := w.(workload.SteadyHinter)
		_, gotHint := got.(workload.SteadyHinter)
		wantFS, wantFrames := w.(frameSource)
		gotFS, gotFrames := got.(frameSource)
		if gotHint != wantHint || gotFrames != wantFrames {
			t.Errorf("%T: wrapper hint=%v frames=%v, want hint=%v frames=%v", w, gotHint, gotFrames, wantHint, wantFrames)
		}
		if wantFrames && gotFrames && (gotFS.AvgFPS() != wantFS.AvgFPS() || gotFS.DropRate() != wantFS.DropRate()) {
			t.Errorf("%T: frame statistics not forwarded", w)
		}
		got.Tick(0, time.Millisecond, nil)
		if clk.ticks != 1 || got.Name() != w.Name() {
			t.Errorf("%T: wrapper counted %d ticks, name %q", w, clk.ticks, got.Name())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step: the same
// workloads and the same metrics with the same units, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	wls := workloads()
	if len(bj.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(wls))
	}
	for i, w := range wls {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, c.json[i], d)
			}
		}
	}
}
