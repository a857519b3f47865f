package scenario_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobicore/internal/scenario"
)

// TestProfilesValidate: every built-in profile passes its own validation.
func TestProfilesValidate(t *testing.T) {
	for _, p := range scenario.Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(scenario.ProfileNames()) != len(scenario.Profiles()) {
		t.Error("ProfileNames and Profiles disagree")
	}
	if _, err := scenario.ProfileByName("dayinlife"); err != nil {
		t.Error(err)
	}
	if _, err := scenario.ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestGeneratorDeterministic: equal seeds produce byte-identical JSONL
// exports; different seeds diverge.
func TestGeneratorDeterministic(t *testing.T) {
	export := func(seed int64) []byte {
		t.Helper()
		g, err := scenario.NewGenerator(scenario.DayInTheLife(), seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Generate(time.Minute).WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(7), export(7)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different traces")
	}
	if bytes.Equal(a, export(8)) {
		t.Error("different seeds produced identical traces")
	}
}

// TestGenerateCoversDuration: the trace covers exactly the asked total.
func TestGenerateCoversDuration(t *testing.T) {
	g, err := scenario.NewGenerator(scenario.Standby(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Generate(30 * time.Second)
	if got := tr.TotalDuration(); got != 30*time.Second {
		t.Errorf("TotalDuration = %v, want 30s", got)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestTraceJSONLByteRoundTrip: export → parse → export is byte-identical.
func TestTraceJSONLByteRoundTrip(t *testing.T) {
	g, err := scenario.NewGenerator(scenario.DayInTheLife(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Generate(2 * time.Minute)
	var first bytes.Buffer
	if err := tr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := parsed.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("export→parse→export not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
			first.Bytes(), second.Bytes())
	}
}

// TestReadJSONLErrors: malformed traces are rejected with line numbers.
func TestReadJSONLErrors(t *testing.T) {
	hdr := `{"format":"mobicore-scenario/1","name":"x","seed":1}`
	cases := map[string]struct {
		in      string
		wantErr string
	}{
		"empty":        {"", "empty trace"},
		"bad header":   {"not json\n", "line 1"},
		"wrong format": {`{"format":"other/9","name":"x","seed":1}` + "\n", "format"},
		"no segments":  {hdr + "\n", "no segments"},
		"bad phase":    {hdr + "\n" + `{"phase":"nap","dur_ns":5,"rate":1,"threads":1}` + "\n", "line 2"},
		"zero dur":     {hdr + "\n" + `{"phase":"idle","dur_ns":0,"rate":0,"threads":0}` + "\n", "row 2"},
		"neg rate":     {hdr + "\n" + `{"phase":"idle","dur_ns":5,"rate":-1,"threads":1}` + "\n", "row 2"},
		"rate no threads": {hdr + "\n" + `{"phase":"wakeup","dur_ns":5,"rate":1,"threads":0}` + "\n" +
			`{"phase":"idle","dur_ns":5,"rate":0,"threads":0}` + "\n", "row 2"},
		"bad row json": {hdr + "\n" + `{"phase":"idle","dur_ns":5,"rate":0,"threads":0}` + "\nnope\n", "line 3"},
	}
	for name, c := range cases {
		_, err := scenario.ReadJSONL(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.wantErr)
		}
	}
}

// handTrace builds a small fixed trace exercising spawn, retire, idle, and
// wakeup transitions.
func handTrace() scenario.Trace {
	return scenario.Trace{
		Name: "hand",
		Segments: []scenario.Segment{
			{Phase: scenario.PhaseInteractive, Duration: 10 * time.Millisecond, Rate: 1e9, Threads: 2},
			{Phase: scenario.PhaseIdle, Duration: 20 * time.Millisecond, Rate: 0, Threads: 0},
			{Phase: scenario.PhaseWakeup, Duration: 5 * time.Millisecond, Rate: 1e8, Threads: 1},
			{Phase: scenario.PhaseIdle, Duration: 10 * time.Millisecond, Rate: 0, Threads: 0},
		},
	}
}

// TestSteadyHintOnlyInQuiescentTicks: the hint must be false on every tick
// that deposits demand or spawns a thread, and true across idle stretches
// and after replay exhaustion.
func TestSteadyHintOnlyInQuiescentTicks(t *testing.T) {
	w, err := scenario.New(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	hints := make([]bool, 0, 50)
	for i := 0; i < 50; i++ {
		w.Tick(time.Duration(i)*time.Millisecond, time.Millisecond, rng)
		hints = append(hints, w.SteadyHint())
	}
	for i := 0; i < 10; i++ { // interactive: deposits every tick
		if hints[i] {
			t.Errorf("tick %d (interactive) hinted steady", i)
		}
	}
	for i := 10; i < 30; i++ { // screen-off idle
		if !hints[i] {
			t.Errorf("tick %d (idle) did not hint steady", i)
		}
	}
	for i := 30; i < 35; i++ { // wakeup deposits again
		if hints[i] {
			t.Errorf("tick %d (wakeup) hinted steady", i)
		}
	}
	for i := 35; i < 50; i++ { // trailing idle, then exhausted
		if !hints[i] {
			t.Errorf("tick %d (post-trace) did not hint steady", i)
		}
	}
}

// TestThreadsSpawnAtPhaseBoundaries: fan-out threads appear exactly when a
// phase first needs them, stay for accounting, and drain after retirement.
func TestThreadsSpawnAtPhaseBoundaries(t *testing.T) {
	w, err := scenario.New(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if len(w.Threads()) != 0 {
		t.Fatalf("threads before first tick = %d, want 0", len(w.Threads()))
	}
	w.Tick(0, time.Millisecond, rng)
	if len(w.Threads()) != 2 {
		t.Fatalf("threads in interactive phase = %d, want 2", len(w.Threads()))
	}
	// One tick past the 45ms trace so the replay notices exhaustion.
	for i := 1; i < 46; i++ {
		w.Tick(time.Duration(i)*time.Millisecond, time.Millisecond, rng)
	}
	// The widest fan-out of the trace is 2; the wakeup reuses thread 0.
	if len(w.Threads()) != 2 {
		t.Errorf("threads after full replay = %d, want 2", len(w.Threads()))
	}
	if !w.Done() {
		// Done also needs drained threads; drain them by executing.
		for _, th := range w.Threads() {
			if th.Pending() > 0 {
				th.Execute(th.Pending(), 0)
			}
		}
		if !w.Done() {
			t.Error("replay not done after exhaustion and drain")
		}
	}
}

// TestReplayDemandIntegratesToTrace: replaying a generated trace to the end
// deposits exactly the trace's integrated cycles (within float rounding).
func TestReplayDemandIntegratesToTrace(t *testing.T) {
	for _, prof := range scenario.Profiles() {
		g, err := scenario.NewGenerator(prof, 11)
		if err != nil {
			t.Fatal(err)
		}
		tr := g.Generate(45 * time.Second)
		w, err := scenario.New(tr)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for now := time.Duration(0); now < 46*time.Second; now += time.Millisecond {
			w.Tick(now, time.Millisecond, rng)
		}
		want := tr.TotalCycles()
		got := w.DepositedCycles()
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Errorf("%s: deposited %v cycles, trace integrates to %v (rel err %g)", prof.Name, got, want, rel)
		}
	}
}

// TestGeneratorModeRecordsItsWalk: a generator-mode workload's recorded
// segments reproduce the stand-alone generator's trace for the same seed —
// the record half of the record/replay pipeline.
func TestGeneratorModeRecordsItsWalk(t *testing.T) {
	prof := scenario.DayInTheLife()
	w, err := scenario.FromProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 21
	rng := rand.New(rand.NewSource(seed))
	for now := time.Duration(0); now < 30*time.Second; now += time.Millisecond {
		w.Tick(now, time.Millisecond, rng)
	}
	rec := w.Recorded(seed)
	g, err := scenario.NewGenerator(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Generate(30 * time.Second)
	// The recorded walk's final segment keeps its full drawn duration;
	// Generate truncates it at the horizon. Compare the shared prefix.
	if len(rec.Segments) != len(want.Segments) {
		t.Fatalf("recorded %d segments, generator produced %d", len(rec.Segments), len(want.Segments))
	}
	for i := range want.Segments {
		r, g := rec.Segments[i], want.Segments[i]
		if r.Phase != g.Phase || r.Rate != g.Rate || r.Threads != g.Threads {
			t.Fatalf("segment %d: recorded %+v, generated %+v", i, r, g)
		}
		if i < len(want.Segments)-1 && r.Duration != g.Duration {
			t.Fatalf("segment %d duration: recorded %v, generated %v", i, r.Duration, g.Duration)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ReadJSONL(&buf); err != nil {
		t.Errorf("recorded trace does not re-import: %v", err)
	}
}

// FuzzReadJSONL: whatever bytes arrive, the trace parser either rejects
// them or returns a trace that passes Validate and survives an export and
// re-parse unchanged, with the re-export byte-identical to the first.
// The seed corpus lives in testdata/fuzz/FuzzReadJSONL; run with
// `go test -run=NONE -fuzz=FuzzReadJSONL ./internal/scenario/`.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := scenario.ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v (input %q)", err, in)
		}
		var first bytes.Buffer
		if err := tr.WriteJSONL(&first); err != nil {
			t.Fatalf("exporting accepted trace: %v (input %q)", err, in)
		}
		back, err := scenario.ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing exported trace: %v (input %q)", err, in)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v\n(input %q)", back, tr, in)
		}
		var second bytes.Buffer
		if err := back.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export not byte-identical:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
