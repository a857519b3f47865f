package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// oracleParts builds the joint search's inputs for a platform: one
// calibrated model, table and core count per frequency domain.
func oracleParts(t testing.TB, plat platform.Platform) (float64, []*power.Model, []*soc.OPPTable, []int) {
	t.Helper()
	specs := plat.ClusterSpecs()
	models := make([]*power.Model, len(specs))
	tables := make([]*soc.OPPTable, len(specs))
	counts := make([]int, len(specs))
	for ci, cs := range specs {
		m, err := power.NewModel(cs.Power, cs.Table)
		if err != nil {
			t.Fatal(err)
		}
		models[ci] = m
		tables[ci] = cs.Table
		counts[ci] = cs.NumCores
	}
	return plat.Power.BaseWatts, models, tables, counts
}

// TestChooseClusterOperatingPointsPrefersLittle: a demand that fits the
// efficiency cluster must not buy A57 leakage — the joint optimum parks
// the big cluster entirely.
func TestChooseClusterOperatingPointsPrefersLittle(t *testing.T) {
	base, models, tables, counts := oracleParts(t, platform.Nexus6P())
	demand := 1.0e9 // one LITTLE core at ~2/3 ladder serves this
	choice, watts, err := ChooseClusterOperatingPoints(base, models, tables, counts, demand)
	if err != nil {
		t.Fatal(err)
	}
	if choice[1].Cores != 0 {
		t.Errorf("big cluster got %d cores for a LITTLE-sized demand", choice[1].Cores)
	}
	if choice[0].Cores < 1 {
		t.Error("no LITTLE cores chosen")
	}
	capacity := float64(choice[0].Cores) * float64(choice[0].OPP.Freq)
	if capacity < demand {
		t.Errorf("chosen capacity %.3g below demand %.3g", capacity, demand)
	}
	if watts <= 0 {
		t.Errorf("non-positive predicted watts %v", watts)
	}
}

// TestChooseClusterOperatingPointsSpansClusters: a demand beyond the whole
// LITTLE ladder forces big cores into the joint optimum, and the combined
// capacity still serves it.
func TestChooseClusterOperatingPointsSpansClusters(t *testing.T) {
	base, models, tables, counts := oracleParts(t, platform.Nexus6P())
	littleCap := float64(counts[0]) * float64(tables[0].Max().Freq)
	demand := littleCap * 1.5
	choice, _, err := ChooseClusterOperatingPoints(base, models, tables, counts, demand)
	if err != nil {
		t.Fatal(err)
	}
	if choice[1].Cores < 1 {
		t.Errorf("demand %.3g exceeds LITTLE capacity %.3g but big cluster got no cores", demand, littleCap)
	}
	var capacity float64
	for ci, ch := range choice {
		capacity += float64(ch.Cores) * float64(ch.OPP.Freq)
		if ch.Cores < 0 || ch.Cores > counts[ci] {
			t.Errorf("cluster %d cores %d outside [0,%d]", ci, ch.Cores, counts[ci])
		}
	}
	if capacity < demand {
		t.Errorf("joint capacity %.3g below demand %.3g", capacity, demand)
	}
}

// TestChooseClusterOperatingPointsOverload: demand beyond the whole SoC
// falls back to everything flat out rather than erroring.
func TestChooseClusterOperatingPointsOverload(t *testing.T) {
	base, models, tables, counts := oracleParts(t, platform.Nexus6P())
	choice, _, err := ChooseClusterOperatingPoints(base, models, tables, counts, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	for ci, ch := range choice {
		if ch.Cores != counts[ci] || ch.OPP.Freq != tables[ci].Max().Freq {
			t.Errorf("cluster %d not flat out under overload: %d cores at %v", ci, ch.Cores, ch.OPP.Freq)
		}
	}
}

// TestChooseOperatingPointsRejectNaN: a NaN demand is an error in both
// searches, never a silent choice.
func TestChooseOperatingPointsRejectNaN(t *testing.T) {
	base, models, tables, counts := oracleParts(t, platform.Nexus6P())
	if _, _, err := ChooseClusterOperatingPoints(base, models, tables, counts, math.NaN()); err == nil {
		t.Error("clustered search accepted a NaN demand")
	}
	plat := platform.Nexus5()
	m, err := power.NewModel(plat.Power, plat.Table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChooseOperatingPoint(m, plat.Table, math.NaN(), plat.NumCores); err == nil {
		t.Error("homogeneous search accepted a NaN demand")
	}
}

// clusterViews lays a platform's cores out per frequency domain, in order.
func clusterViews(plat platform.Platform) []policy.ClusterView {
	specs := plat.ClusterSpecs()
	views := make([]policy.ClusterView, len(specs))
	id := 0
	for ci, cs := range specs {
		ids := make([]int, cs.NumCores)
		for j := range ids {
			ids[j] = id
			id++
		}
		views[ci] = policy.ClusterView{Name: cs.Name, Table: cs.Table, CoreIDs: ids}
	}
	return views
}

// TestClusteredOracleRepeatsMatchFresh: the oracle's one-entry demand memo
// is invisible. On every multi-cluster profile and at three headrooms (0,
// one that nudges each demand just past the capacity it names, and a
// production-sized 15%), one long-lived oracle and a freshly built one
// decide identically at every step of a sequence with runs of repeated
// samples, idle samples, every option's exact capacity followed by that
// capacity plus a sliver too small for float32 to see, the whole SoC flat
// out, random loads, and a Reset partway through.
func TestClusteredOracleRepeatsMatchFresh(t *testing.T) {
	profiles := platform.Profiles()
	for _, alias := range slices.Sorted(maps.Keys(profiles)) {
		plat := profiles[alias]()
		if len(plat.ClusterSpecs()) < 2 {
			continue
		}
		t.Run(alias, func(t *testing.T) {
			views := clusterViews(plat)
			blank := func() policy.Input {
				in := policy.Input{
					Now:      time.Second,
					Period:   50 * time.Millisecond,
					Util:     make([]float64, plat.NumCores),
					Online:   make([]bool, plat.NumCores),
					CurFreq:  make([]soc.Hz, plat.NumCores),
					Quota:    1,
					Table:    plat.Table,
					Clusters: views,
				}
				for _, v := range views {
					for _, id := range v.CoreIDs {
						in.CurFreq[id] = v.Table.Min().Freq
					}
				}
				return in
			}
			load := func(in policy.Input, id int, util float64, f soc.Hz) {
				in.Online[id], in.Util[id], in.CurFreq[id] = true, util, f
			}
			rng := rand.New(rand.NewSource(3))
			var inputs []policy.Input
			add := func(in policy.Input) {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					inputs = append(inputs, in)
				}
			}
			add(blank())
			for ci, v := range views {
				for c := 1; c <= len(v.CoreIDs); c++ {
					for _, opp := range v.Table.Points() {
						exact := blank()
						for _, id := range v.CoreIDs[:c] {
							load(exact, id, 1, opp.Freq)
						}
						add(exact)
						sliver := blank()
						copy(sliver.Online, exact.Online)
						copy(sliver.Util, exact.Util)
						copy(sliver.CurFreq, exact.CurFreq)
						other := views[(ci+1)%len(views)]
						load(sliver, other.CoreIDs[len(other.CoreIDs)-1], 1e-9, other.Table.Min().Freq)
						add(sliver)
					}
				}
			}
			full := blank()
			for _, v := range views {
				for _, id := range v.CoreIDs {
					load(full, id, 1, v.Table.Max().Freq)
				}
			}
			add(full)
			for i := 0; i < 200; i++ {
				in := blank()
				for _, v := range views {
					for _, id := range v.CoreIDs {
						if rng.Intn(2) == 0 {
							load(in, id, rng.Float64(), v.Table.At(rng.Intn(v.Table.Len())).Freq)
						}
					}
				}
				add(in)
			}

			for _, headroom := range []float64{0, 0x1p-52, 0.15} {
				long, err := NewClusteredOracleForPlatform(plat, headroom)
				if err != nil {
					t.Fatal(err)
				}
				for i, in := range inputs {
					if i == len(inputs)/2 {
						long.Reset()
						if long.primed {
							t.Fatal("Reset kept the remembered demand")
						}
					}
					fresh, err := NewClusteredOracleForPlatform(plat, headroom)
					if err != nil {
						t.Fatal(err)
					}
					got, err := long.Decide(in)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Decide(in)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.TargetFreq, want.TargetFreq) || !slices.Equal(got.OnlineVec, want.OnlineVec) {
						t.Fatalf("headroom %v step %d: long-lived oracle chose %v %v, fresh %v %v",
							headroom, i, got.OnlineVec, got.TargetFreq, want.OnlineVec, want.TargetFreq)
					}
				}
			}
		})
	}
}

// TestClusteredOracleDecide: the manager emits a valid clustered decision
// on the heterogeneous platform — the configuration the homogeneous oracle
// used to reject.
func TestClusteredOracleDecide(t *testing.T) {
	plat := platform.Nexus6P()
	o, err := NewClusteredOracleForPlatform(plat, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	views := clusterViews(plat)
	in := policy.Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     make([]float64, plat.NumCores),
		Online:   make([]bool, plat.NumCores),
		CurFreq:  make([]soc.Hz, plat.NumCores),
		Quota:    1,
		Table:    plat.Table,
		Clusters: views,
	}
	for _, idc := range views[0].CoreIDs {
		in.Online[idc] = true
		in.Util[idc] = 0.9
		in.CurFreq[idc] = views[0].Table.Max().Freq
	}
	for _, idc := range views[1].CoreIDs {
		in.CurFreq[idc] = views[1].Table.Min().Freq
	}
	dec, err := o.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.ValidateClustered(views, plat.NumCores); err != nil {
		t.Fatalf("clustered oracle produced invalid decision: %v", err)
	}
	if dec.OnlineVec == nil {
		t.Fatal("clustered oracle should allocate per cluster")
	}
	total := 0
	for _, n := range dec.OnlineVec {
		total += n
	}
	if total < 1 {
		t.Error("oracle parked every core")
	}
}

// BenchmarkClusterOracle times one joint search on each multi-cluster
// platform with its constants prebuilt, as ClusteredOracle holds them,
// cycling through a fixed set of demands spread over the SoC's capacity.
// Its 64 random demands never repeat back to back, and it calls the search
// directly, so it measures the branch and bound's pruning, not
// ClusteredOracle's repeated-demand memo.
func BenchmarkClusterOracle(b *testing.B) {
	for _, alias := range []string{"nexus6p", "sd855"} {
		b.Run(alias, func(b *testing.B) {
			plat, err := platform.ByName(alias)
			if err != nil {
				b.Fatal(err)
			}
			s, err := newClusterSearch(oracleParts(b, plat))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			demands := make([]float64, 64)
			for i := range demands {
				demands[i] = rng.Float64() * fullCapacity(s)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				s.run(demands[i%len(demands)])
			}
		})
	}
}
