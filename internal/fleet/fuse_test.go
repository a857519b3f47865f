package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// fuseSpec builds a randomized-but-reproducible matrix: one single-domain,
// one two-cluster and one three-cluster platform, both policies, both
// placers, a fixed-seed random assortment of busy loops plus a trace-driven
// game, a day-in-the-life scenario, and a sinusoid with per-tick noise whose
// fresh demand every window defeats the memo (the windows it does not
// record must still leave fused output identical). The randomness is in the
// spec construction only — every run of the test sees the same matrix, but
// the utilizations and thread counts are not hand-picked round numbers the
// fast path could accidentally specialize to.
func fuseSpec(t *testing.T, par int, noFuse bool, storeDir, traceDir string) Spec {
	t.Helper()
	rng := rand.New(rand.NewSource(0xf05e))
	noisy := WorkloadFactory{
		Name: "sinusoid-4x1.2e9-a0.6-p2s-n0.2",
		New: func() ([]workload.Workload, error) {
			w, err := workload.NewSinusoid("noisy", 4, 1.2e9, 0.6, 2*time.Second, 0.2)
			if err != nil {
				return nil, err
			}
			return []workload.Workload{w}, nil
		},
	}
	workloads := []WorkloadFactory{gameFactory(t), scenarioFactory("dayinlife"), noisy}
	for i := 0; i < 3; i++ {
		util := 0.15 + 0.7*rng.Float64()
		threads := 1 + rng.Intn(6)
		f := busyFactory(util, threads)
		// The workload name is part of the cell identity key; three
		// busyloops with different shapes must not collide in the store.
		f.Name = fmt.Sprintf("busy-u%03.0f-t%d", util*100, threads)
		workloads = append(workloads, f)
	}
	return Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.Nexus6P(), platform.SD855()},
		Policies:  []PolicyFactory{Policy("android-default"), Policy("mobicore")},
		Workloads: workloads,
		Placers:   []string{sim.PlacerGreedy, sim.PlacerEAS},
		Seeds:     []int64{1, 2},
		Duration:  time.Second,
		Parallel:  par,
		NoFuse:    noFuse,
		StoreDir:  storeDir,
		TraceDir:  traceDir,
	}
}

// TestFleetFusedMatchesNoFuseAcrossParallelism is the widest identity net for
// the quiescent-tick fast path: a randomized fleet matrix must persist
// byte-identical artifacts — cells.jsonl, the store CSV, the result CSV, and
// every decompressed per-tick trace — whether the engine fuses or not, and
// whether the fleet runs serial or fanned out. NoFuse is not part of a
// cell's identity key, so the fused and slow stores are directly comparable.
func TestFleetFusedMatchesNoFuseAcrossParallelism(t *testing.T) {
	type artifacts struct {
		jsonl, storeCSV, runCSV []byte
		traces                  map[string][]byte
	}
	run := func(par int, noFuse bool) artifacts {
		t.Helper()
		dir := t.TempDir()
		traceDir := filepath.Join(dir, "traces")
		spec := fuseSpec(t, par, noFuse, filepath.Join(dir, "store"), traceDir)
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		jsonl, storeCSV := readStoreFiles(t, spec.StoreDir)
		traces := make(map[string][]byte, len(res.Cells))
		for _, c := range res.Cells {
			f, err := os.Open(filepath.Join(traceDir, TraceFileName(c.Key)))
			if err != nil {
				t.Fatal(err)
			}
			gz, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(gz)
			if err != nil {
				t.Fatal(err)
			}
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			traces[c.Key] = raw
		}
		return artifacts{jsonl: jsonl, storeCSV: storeCSV, runCSV: buf.Bytes(), traces: traces}
	}
	ref := run(1, true) // serial slow path is the ground truth
	for _, v := range []struct {
		name   string
		par    int
		noFuse bool
	}{
		{"fused serial", 1, false},
		{"fused parallel", 8, false},
		{"nofuse parallel", 8, true},
	} {
		got := run(v.par, v.noFuse)
		if !bytes.Equal(got.jsonl, ref.jsonl) {
			t.Errorf("%s: cells.jsonl diverged from serial NoFuse", v.name)
		}
		if !bytes.Equal(got.storeCSV, ref.storeCSV) {
			t.Errorf("%s: store CSV diverged from serial NoFuse", v.name)
		}
		if !bytes.Equal(got.runCSV, ref.runCSV) {
			t.Errorf("%s: result CSV diverged from serial NoFuse", v.name)
		}
		if len(got.traces) != len(ref.traces) {
			t.Fatalf("%s: %d traces, want %d", v.name, len(got.traces), len(ref.traces))
		}
		for key, want := range ref.traces {
			if !bytes.Equal(got.traces[key], want) {
				t.Errorf("%s: trace %s diverged from serial NoFuse", v.name, key)
			}
		}
	}
}
