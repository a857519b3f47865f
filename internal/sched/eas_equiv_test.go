package sched

import (
	"math/rand"
	"sort"
	"testing"

	"mobicore/internal/platform"
)

// TestEASMatchesGreedyOnSingleDomain generates placement views for every
// single-domain platform profile and requires the EAS placer to pick the
// greedy's core for each: the equivalence that lets a simulation with one
// performance domain schedule EAS sessions greedily. The views cover
// online masks, exhausted and tied budgets, ladder frequencies, thermal
// flags with and without a (possibly out-of-range) cap scale, affinity to
// online, offline, unknown and capped cores, and debts around the
// candidates' capacities.
func TestEASMatchesGreedyOnSingleDomain(t *testing.T) {
	names := make([]string, 0, len(platform.Profiles()))
	for name := range platform.Profiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	tested := 0
	for _, name := range names {
		plat := platform.Profiles()[name]()
		comp, err := plat.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		if comp.EM.NumDomains() != 1 {
			continue
		}
		tested++
		t.Run(name, func(t *testing.T) {
			eas, err := NewEASPlacer(comp.EM)
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := comp.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			rankOf, numRanks := cpu.ClusterRanks()
			table := plat.ClusterSpecs()[0].Table
			n := comp.EM.NumCores()
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			for trial := 0; trial < 5000; trial++ {
				env := randomSingleDomainEnv(rng, n, rankOf, numRanks, func() float64 {
					return float64(table.At(rng.Intn(table.Len())).Freq)
				})
				th := NewThread("t")
				th.lastCore = rng.Intn(n+2) - 1 // -1 (never placed) .. n (unknown core)
				th.pending = randomDebt(rng, env)
				if g, e := (GreedyPlacer{}).Place(env, th), eas.Place(env, th); g != e {
					t.Fatalf("trial %d: greedy placed on %d, eas on %d\nenv %+v\nlast core %d, debt %v",
						trial, g, e, *env, th.lastCore, th.pending)
				}
			}
		})
	}
	if tested == 0 {
		t.Fatal("no single-domain platform profile")
	}
}

// randomSingleDomainEnv draws one placement view over n cores.
func randomSingleDomainEnv(rng *rand.Rand, n int, rankOf []int, numRanks int, freq func() float64) *PlaceEnv {
	windows := []float64{0.001, 0.01, 0.05}
	env := &PlaceEnv{
		Online:    make([]bool, n),
		Budget:    make([]float64, n),
		Freq:      make([]float64, n),
		RankOf:    rankOf,
		NumRanks:  numRanks,
		WindowSec: windows[rng.Intn(len(windows))],
		AnyCool:   rng.Intn(2) == 0,
	}
	for i := 0; i < n; i++ {
		env.Online[i] = rng.Intn(5) != 0
		if !env.Online[i] {
			continue
		}
		env.Freq[i] = freq()
		switch rng.Intn(5) {
		case 0:
			env.Budget[i] = 0 // exhausted
		case 1:
			env.Budget[i] = 1e-13 // below the placers' epsilon
		case 2:
			env.Budget[i] = env.WindowSec // untouched, ties with its peers
		case 3:
			env.Budget[i] = env.WindowSec / 2 // half used, ties too
		default:
			env.Budget[i] = env.WindowSec * rng.Float64()
		}
	}
	if rng.Intn(3) != 0 {
		env.Capped = make([]bool, n-rng.Intn(2)) // sometimes one short
		for i := range env.Capped {
			env.Capped[i] = rng.Intn(3) == 0
		}
		if rng.Intn(2) == 0 {
			scales := []float64{0, 0.3, 0.75, 1, 1.5}
			env.CapScale = make([]float64, n)
			for i := range env.CapScale {
				env.CapScale[i] = scales[rng.Intn(len(scales))]
			}
		}
	}
	return env
}

// randomDebt draws a thread's pending cycles: none, tiny, around one
// core's remaining capacity at its frequency or at the ladder top, or
// deep backlog.
func randomDebt(rng *rand.Rand, env *PlaceEnv) float64 {
	i := rng.Intn(len(env.Budget))
	capCycles := env.Budget[i] * env.Freq[i]
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return capCycles
	case 3:
		return capCycles * (0.5 + rng.Float64())
	case 4:
		return capCycles * thermalDerate
	default:
		return 1e12
	}
}
