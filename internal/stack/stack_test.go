package stack

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mobicore/internal/cpufreq"
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

// TestGovernorStacksMatchSingleDomain locks the folded homogeneous forks:
// on every single-cluster profile, Build's N-domain construction decides
// exactly like the single-domain Composite it replaced, over a seeded
// random sequence of observations fed to both in lockstep.
func TestGovernorStacksMatchSingleDomain(t *testing.T) {
	profiles := platform.Profiles()
	for _, alias := range slices.Sorted(maps.Keys(profiles)) {
		plat := profiles[alias]()
		if plat.Heterogeneous() {
			continue
		}
		refs := map[string]func() (policy.Manager, error){
			AndroidDefault: func() (policy.Manager, error) { return policy.AndroidDefault(plat.Table) },
		}
		for _, name := range []string{"interactive+mpdecision", "schedutil+offline", "conservative+fixed-2", "pin-max+load"} {
			refs[name] = func() (policy.Manager, error) {
				govName, plugName, _ := strings.Cut(name, "+")
				gov, err := cpufreq.New(govName, plat.Table)
				if err != nil {
					return nil, err
				}
				plug, err := buildHotplug(plugName)
				if err != nil {
					return nil, err
				}
				return policy.Compose(gov, plug)
			}
		}
		for name, newRef := range refs {
			got, err := Build(name, plat)
			if err != nil {
				t.Fatalf("Build(%q, %s): %v", name, alias, err)
			}
			want, err := newRef()
			if err != nil {
				t.Fatalf("%s reference on %s: %v", name, alias, err)
			}
			if got.Name() != want.Name() {
				t.Errorf("%s on %s: name %q, want %q", name, alias, got.Name(), want.Name())
			}
			rng := rand.New(rand.NewSource(int64(len(alias)*31 + len(name))))
			for i, in := range randomInputs(rng, plat, 300) {
				dg, errG := got.Decide(in)
				dw, errW := want.Decide(in)
				if (errG != nil) != (errW != nil) || !reflect.DeepEqual(dg, dw) {
					t.Fatalf("%s on %s, input %d: Decide = %+v, %v; single-domain = %+v, %v",
						name, alias, i, dg, errG, dw, errW)
				}
			}
		}
	}
}

// randomInputs draws count successive observations of a single-cluster
// platform: random hotplug state (at least one core online), frequencies
// on the ladder, utilization in [0,1] on online cores, quota in (0,1], and
// half the time the engine's cluster view and thermal telemetry.
func randomInputs(rng *rand.Rand, plat platform.Platform, count int) []policy.Input {
	n := plat.NumCores
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	views := []policy.ClusterView{{Name: "cpu", Table: plat.Table, CoreIDs: ids}}
	inputs := make([]policy.Input, count)
	for k := range inputs {
		in := policy.Input{
			Now:     time.Duration(k+1) * 50 * time.Millisecond,
			Period:  50 * time.Millisecond,
			Util:    make([]float64, n),
			Online:  make([]bool, n),
			CurFreq: make([]soc.Hz, n),
			Quota:   1 - 0.9*rng.Float64(),
			Table:   plat.Table,
		}
		for i := range in.Util {
			in.Online[i] = i == 0 || rng.Intn(4) > 0
			in.CurFreq[i] = plat.Table.At(rng.Intn(plat.Table.Len())).Freq
			if in.Online[i] {
				in.Util[i] = rng.Float64()
			}
		}
		if rng.Intn(2) == 0 {
			in.Clusters = views
			in.Thermal = []policy.ThermalSignal{{TempC: 40, HeadroomC: 5, CapFreq: plat.Table.Max().Freq}}
		}
		inputs[k] = in
	}
	return inputs
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
