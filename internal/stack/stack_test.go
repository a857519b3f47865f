package stack

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
)

// TestBuildNamedStacks: every named stack resolves on both a homogeneous
// and a heterogeneous profile, and each call returns a distinct manager
// instance (managers are stateful; the fleet driver builds one per cell).
func TestBuildNamedStacks(t *testing.T) {
	for _, plat := range []platform.Platform{platform.Nexus5(), platform.Nexus6P()} {
		for _, name := range append(Names(), "", "interactive+load", "userspace+fixed-2",
			"pin-max+mpdecision", "pin-min+offline", "pin-mid+load", "ondemand+offline") {
			a, err := Build(name, plat)
			if err != nil {
				t.Fatalf("Build(%q, %s): %v", name, plat.Name, err)
			}
			b, err := Build(name, plat)
			if err != nil {
				t.Fatalf("Build(%q, %s) second call: %v", name, plat.Name, err)
			}
			if a == b {
				t.Errorf("Build(%q, %s) returned the same instance twice", name, plat.Name)
			}
		}
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	for _, name := range []string{"nope", "ondemand", "ondemand+", "+load", "ondemand+nope", "pin-low+load"} {
		if _, err := Build(name, platform.Nexus5()); err == nil {
			t.Errorf("Build(%q) accepted", name)
		}
	}
}

// decideInputs builds a fixed cycle of policy observations for a platform:
// every core online at its domain's top OPP, per-core utilization drawn
// from a seeded generator, so successive Decide calls see varied demand.
func decideInputs(plat platform.Platform, count int) []policy.Input {
	specs := plat.ClusterSpecs()
	views := make([]policy.ClusterView, len(specs))
	curFreq := make([]soc.Hz, 0, plat.NumCores)
	for ci, cs := range specs {
		ids := make([]int, cs.NumCores)
		for j := range ids {
			ids[j] = len(curFreq)
			curFreq = append(curFreq, cs.Table.Max().Freq)
		}
		views[ci] = policy.ClusterView{Name: cs.Name, Table: cs.Table, CoreIDs: ids}
	}
	online := make([]bool, plat.NumCores)
	for i := range online {
		online[i] = true
	}
	rng := rand.New(rand.NewSource(1))
	inputs := make([]policy.Input, count)
	for i := range inputs {
		util := make([]float64, plat.NumCores)
		for j := range util {
			util[j] = rng.Float64()
		}
		inputs[i] = policy.Input{
			Period:   50 * time.Millisecond,
			Util:     util,
			Online:   online,
			CurFreq:  curFreq,
			Quota:    1,
			Table:    plat.Table,
			Clusters: views,
		}
	}
	return inputs
}

// BenchmarkDecide times one policy decision for every named stack on every
// platform profile, cycling through a fixed set of observations. It is the
// per-layer guard on decision cost: an expensive manager (the exhaustive
// oracle was one) shows up here before it dominates a study's wall time.
func BenchmarkDecide(b *testing.B) {
	profiles := platform.Profiles()
	for _, alias := range slices.Sorted(maps.Keys(profiles)) {
		plat := profiles[alias]()
		inputs := decideInputs(plat, 64)
		for _, name := range Names() {
			b.Run(alias+"/"+name, func(b *testing.B) {
				m, err := Build(name, plat)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					in := inputs[i%len(inputs)]
					in.Now = time.Duration(i+1) * in.Period
					if _, err := m.Decide(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
