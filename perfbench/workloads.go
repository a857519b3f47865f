package main

import (
	"fmt"
	"math/rand"
	"time"

	"mobicore"
	"mobicore/internal/fleet"
	"mobicore/internal/platform"
	"mobicore/internal/sim"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// parallel is the fleet worker-pool size of every timed pass: the
// two-vCPU study box the benchmark was sized on.
const parallel = 2

// sessionLength is the simulated length of every cell of every workload.
const sessionLength = 30 * time.Second

// studyPolicies are the four stacks the scenario and noisy matrices sweep:
// the paper's policy, its baseline, and two stock alternatives.
var studyPolicies = []string{"mobicore", "android-default", "schedutil+load", "interactive+mpdecision"}

// benchWorkload is one named study matrix. Every cell runs both placers;
// seedsPerPass seeds (drawn from the run's --seed) widen one pass.
type benchWorkload struct {
	name         string
	why          string
	platforms    []string // platform aliases
	policies     []string
	factory      fleet.WorkloadFactory
	seedsPerPass int
}

func scenarioFactory() fleet.WorkloadFactory {
	return mobicore.NewFleetWorkload("scenario-dayinlife", func() ([]workload.Workload, error) {
		w, err := mobicore.NewScenario("dayinlife")
		if err != nil {
			return nil, err
		}
		return []workload.Workload{w}, nil
	})
}

func noisyFactory() fleet.WorkloadFactory {
	return mobicore.NewFleetWorkload("sinusoid-4x1.2e9-a0.6-p2s-n0.2", func() ([]workload.Workload, error) {
		w, err := mobicore.NewSinusoid("noisy", 4, 1.2e9, 0.6, 2*time.Second, 0.2)
		if err != nil {
			return nil, err
		}
		return []workload.Workload{w}, nil
	})
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []benchWorkload {
	return []benchWorkload{
		{
			name:         "scenario-fleet",
			why:          "day-in-the-life users on all 8 platforms: the memo replays most ticks and no oracle runs",
			platforms:    []string{"nexus5", "nexus-s", "mb810", "galaxy-s2", "nexus4", "lg-g3", "nexus6p", "sd855"},
			policies:     studyPolicies,
			factory:      scenarioFactory(),
			seedsPerPass: 4,
		},
		{
			name:         "noisy-fleet",
			why:          "per-tick random demand defeats the memo, so nearly every tick takes the full scheduling, power and thermal path",
			platforms:    []string{"nexus5", "nexus6p", "sd855"},
			policies:     studyPolicies,
			factory:      noisyFactory(),
			seedsPerPass: 2,
		},
		{
			name:         "oracle-study",
			why:          "the exhaustive joint cores x OPP oracle search takes almost all session time",
			platforms:    []string{"nexus6p", "sd855"},
			policies:     []string{"oracle", "mobicore", "android-default"},
			factory:      scenarioFactory(),
			seedsPerPass: 2,
		},
	}
}

func workloadByName(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// seeds draws the matrix seeds of one run from its --seed: the same seed
// always names the same cells.
func (w benchWorkload) seeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, w.seedsPerPass)
	for i := range out {
		out[i] = rng.Int63n(1 << 31)
	}
	return out
}

// spec resolves the workload's matrix for one run: platforms by alias,
// policies built once per platform so an unknown name fails before any
// session runs, sessions of the given simulated length.
func (w benchWorkload) spec(seeds []int64, session time.Duration) (fleet.Spec, error) {
	spec := fleet.Spec{
		Workloads: []fleet.WorkloadFactory{w.factory},
		Placers:   []string{sim.PlacerGreedy, sim.PlacerEAS},
		Seeds:     seeds,
		Duration:  session,
		Parallel:  parallel,
	}
	for _, alias := range w.platforms {
		p, err := platform.ByName(alias)
		if err != nil {
			return fleet.Spec{}, err
		}
		spec.Platforms = append(spec.Platforms, p)
	}
	for _, name := range w.policies {
		for _, p := range spec.Platforms {
			if _, err := stack.Build(name, p); err != nil {
				return fleet.Spec{}, err
			}
		}
		spec.Policies = append(spec.Policies, fleet.Policy(name))
	}
	return spec, nil
}
