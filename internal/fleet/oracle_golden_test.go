package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/sim"
)

// TestClusteredOracleSessionsMatchGolden locks the joint cores × OPP
// oracle's end-to-end output: short day-in-the-life sessions on both
// multi-cluster platforms, under both placers and two seeds, must persist
// byte-identical store records (energy, utilization and every other metric
// down to the float bits). Any change to the oracle's search that alters a
// single decision, including how exact ties break, shows up here.
// Regenerate with -update-golden only after an intentional change to the
// energy model or the oracle's objective.
func TestClusteredOracleSessionsMatchGolden(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Platforms: []platform.Platform{platform.Nexus6P(), platform.SD855()},
		Policies:  []PolicyFactory{Policy("oracle")},
		Workloads: []WorkloadFactory{scenarioFactory("dayinlife")},
		Placers:   []string{sim.PlacerGreedy, sim.PlacerEAS},
		Seeds:     []int64{1, 2},
		Duration:  20 * time.Second,
		Parallel:  2,
		StoreDir:  dir,
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, store.CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "oracle_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("oracle sessions drifted from the golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
