package sim

import (
	"fmt"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/scenario"
	"mobicore/internal/soc"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// TestSnapshotMirrorTracksCPU pins the contract the scheduler and the power
// model lean on: the Sim's snapshot mirror is the only per-window view of
// the CPU, so after every tick its online mask and operating points must
// equal the CPU's own, and no core the CPU held offline while the tick
// scheduled may carry busy time. Hotplug-heavy stacks on a homogeneous and
// a tri-cluster platform, under both placers, drive many online-mask moves
// between stretches of fast ticks.
func TestSnapshotMirrorTracksCPU(t *testing.T) {
	for _, platName := range []string{"nexus5", "sd855"} {
		for _, policyName := range []string{stack.MobiCore, "ondemand+offline"} {
			for _, placer := range []string{PlacerGreedy, PlacerEAS} {
				name := fmt.Sprintf("%s/%s/%s", platName, policyName, placer)
				t.Run(name, func(t *testing.T) {
					checkMirror(t, platName, policyName, placer)
				})
			}
		}
	}
}

func checkMirror(t *testing.T, platName, policyName, placer string) {
	plat, err := platform.ByName(platName)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := stack.Build(policyName, plat)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := scenario.FromProfile(scenario.DayInTheLife())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{wl},
		Seed:      11,
		Placer:    placer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after []soc.CoreSnapshot
	hotplugs := 0
	for s.Now() < 20*time.Second {
		before = s.cpu.SnapshotInto(before)
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		after = s.cpu.SnapshotInto(after)
		for i, c := range after {
			online := c.State != soc.StateOffline
			if m := s.snap[i]; (m.State != soc.StateOffline) != online || m.Freq != c.Freq || m.Volt != c.Volt {
				t.Fatalf("at %v core %d: mirror %+v, CPU %+v", s.Now(), i, m, c)
			}
			if before[i].State == soc.StateOffline && s.busySec[i] != 0 {
				t.Fatalf("at %v core %d: %g busy seconds on an offline core", s.Now(), i, s.busySec[i])
			}
			if online != (before[i].State != soc.StateOffline) {
				hotplugs++
			}
		}
	}
	if hotplugs == 0 {
		t.Error("no core changed online state; the session exercises no hotplug")
	}
	if s.FastTicks() == 0 {
		t.Error("no fast ticks; the replay path went unchecked")
	}
}
