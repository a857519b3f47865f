package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobicore/internal/platform"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// chooseClusterOperatingPointsRef is the exhaustive joint search the
// branch-and-bound ChooseClusterOperatingPoints must reproduce bit for bit:
// it prices every (cores × OPP) leaf of every cluster through the public
// model methods, in the walk order park, then cores ascending × OPP
// ascending, and keeps the first leaf of minimum (watts, total cores,
// aggregate capacity).
func chooseClusterOperatingPointsRef(baseWatts float64, models []*power.Model, tables []*soc.OPPTable, clusterCores []int, demandCyclesPerSec float64) ([]ClusterOperatingPoint, float64, error) {
	n := len(models)
	if n == 0 || len(tables) != n || len(clusterCores) != n {
		return nil, 0, fmt.Errorf("core: cluster oracle needs parallel models/tables/cores, got %d/%d/%d",
			len(models), len(tables), len(clusterCores))
	}
	if baseWatts < 0 {
		return nil, 0, errors.New("core: negative base watts")
	}
	if !(demandCyclesPerSec >= 0) {
		return nil, 0, errors.New("core: negative or NaN demand")
	}
	for ci := 0; ci < n; ci++ {
		if models[ci] == nil || tables[ci] == nil || tables[ci].Len() == 0 {
			return nil, 0, fmt.Errorf("core: cluster %d missing model or table", ci)
		}
		if clusterCores[ci] < 1 {
			return nil, 0, fmt.Errorf("core: cluster %d core count %d", ci, clusterCores[ci])
		}
	}

	var (
		bestChoice []ClusterOperatingPoint
		bestWatts  = math.Inf(1)
		bestCores  = math.MaxInt
		bestCap    = math.Inf(1)
		cur        = make([]ClusterOperatingPoint, n)
	)
	price := func(choice []ClusterOperatingPoint, totalCap float64) float64 {
		watts := baseWatts
		for ci, ch := range choice {
			share := 0.0
			if totalCap > 0 && ch.Cores > 0 {
				share = demandCyclesPerSec * (float64(ch.Cores) * float64(ch.OPP.Freq)) / totalCap
			}
			watts += refClusterPredictWatts(models[ci], ch.Cores, ch.OPP, share, clusterCores[ci])
		}
		return watts
	}
	var walk func(ci, cores int, capacity float64)
	walk = func(ci, cores int, capacity float64) {
		if ci == n {
			if cores < 1 || capacity < demandCyclesPerSec {
				return
			}
			watts := price(cur, capacity)
			if watts < bestWatts ||
				(watts == bestWatts && cores < bestCores) ||
				(watts == bestWatts && cores == bestCores && capacity < bestCap) {
				bestChoice = append(bestChoice[:0], cur...)
				bestWatts, bestCores, bestCap = watts, cores, capacity
			}
			return
		}
		cur[ci] = ClusterOperatingPoint{Cores: 0, OPP: tables[ci].Min()}
		walk(ci+1, cores, capacity)
		for c := 1; c <= clusterCores[ci]; c++ {
			for _, opp := range tables[ci].Points() {
				cur[ci] = ClusterOperatingPoint{Cores: c, OPP: opp}
				walk(ci+1, cores+c, capacity+float64(c)*float64(opp.Freq))
			}
		}
	}
	walk(0, 0, 0)

	if bestChoice == nil {
		// Demand exceeds the whole SoC: run everything flat out.
		full := make([]ClusterOperatingPoint, n)
		totalCap := 0.0
		for ci := 0; ci < n; ci++ {
			full[ci] = ClusterOperatingPoint{Cores: clusterCores[ci], OPP: tables[ci].Max()}
			totalCap += float64(clusterCores[ci]) * float64(tables[ci].Max().Freq)
		}
		return full, price(full, totalCap), nil
	}
	return bestChoice, bestWatts, nil
}

// refClusterPredictWatts prices one cluster serving shareCyclesPerSec on
// cores active cores at opp, the rest power-gated, through the model's
// public per-core and cache terms.
func refClusterPredictWatts(m *power.Model, cores int, opp soc.OPP, shareCyclesPerSec float64, totalCores int) float64 {
	off := float64(totalCores-cores) * m.Params().OfflineWatts
	if cores == 0 {
		return off
	}
	util := shareCyclesPerSec / (float64(cores) * float64(opp.Freq))
	util = clamp(util, 0, 1)
	return float64(cores)*m.CoreWatts(soc.StateActive, opp, util) + off + m.CacheWatts(util, opp.Freq)
}

// checkClusterOracle fails unless the branch-and-bound search agrees with
// the exhaustive reference on every cluster's choice and on the watts bits.
func checkClusterOracle(t *testing.T, base float64, models []*power.Model, tables []*soc.OPPTable, counts []int, demand float64) {
	t.Helper()
	want, wantW, err := chooseClusterOperatingPointsRef(base, models, tables, counts, demand)
	if err != nil {
		t.Fatal(err)
	}
	got, gotW, err := ChooseClusterOperatingPoints(base, models, tables, counts, demand)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || math.Float64bits(gotW) != math.Float64bits(wantW) {
		t.Fatalf("demand %v: got %v at %v W, exhaustive %v at %v W", demand, got, gotW, want, wantW)
	}
}

// leafCapacity sums a candidate's capacity the way the walk does: cluster
// order, parked clusters adding nothing.
func leafCapacity(s *clusterSearch, idx []int) float64 {
	capacity := 0.0
	for ci, k := range idx {
		if o := s.opts[ci][k]; o.point.Cores > 0 {
			capacity += o.cf
		}
	}
	return capacity
}

// fullCapacity is the whole SoC's capacity, summed in walk order.
func fullCapacity(s *clusterSearch) float64 {
	full := 0.0
	for _, c := range s.maxCap {
		full += c
	}
	return full
}

// randomLeaf picks one option index per cluster.
func randomLeaf(rng *rand.Rand, s *clusterSearch) []int {
	idx := make([]int, len(s.opts))
	for ci := range idx {
		idx[ci] = rng.Intn(len(s.opts[ci]))
	}
	return idx
}

// oracleCase is one joint-search input: a platform's calibrated clusters
// or a hand-built variant.
type oracleCase struct {
	name   string
	base   float64
	models []*power.Model
	tables []*soc.OPPTable
	counts []int
}

// oracleCases lists every platform profile (platform.All omits the
// multi-cluster ones) and the hand-built variants. Pairs of identical or
// exactly scaled clusters add candidates that tie in watts bits, so each
// tie-break rule decides some case too.
func oracleCases(t *testing.T) []oracleCase {
	profiles := platform.Profiles()
	var cases []oracleCase
	for _, alias := range slices.Sorted(maps.Keys(profiles)) {
		base, models, tables, counts := oracleParts(t, profiles[alias]())
		cases = append(cases, oracleCase{alias, base, models, tables, counts})
	}
	base, models, tables, counts := oracleParts(t, platform.Nexus5())
	cases = append(cases, oracleCase{"twin", base,
		append(models, models[0]), append(tables, tables[0]), append(counts, counts[0])})
	// Ungated clusters built from the Nexus 5 calibration: a parked cluster
	// prices at exactly zero, so candidates spread over different clusters
	// tie in watts bits and the tie-break decides.
	for _, tc := range []struct {
		name  string
		clock [2]soc.Hz  // per-cluster multiplier on every OPP frequency
		leak  [2]float64 // per-cluster multiplier on the leak coefficient
		cores [2]int
	}{
		// Mirror candidates tie in watts, cores and capacity: the walk's
		// first wins.
		{"twin-ungated", [2]soc.Hz{1, 1}, [2]float64{1, 1}, [2]int{4, 4}},
		// Cluster 1 clocks every OPP twice as fast, so at zero demand one
		// floor core of either cluster ties and the lower capacity wins,
		// though the walk meets it second.
		{"skewed-twin", [2]soc.Hz{1, 2}, [2]float64{1, 1}, [2]int{4, 4}},
		// A cluster-0 core is worth exactly two of cluster 1's (twice the
		// clock and the leakage), so each cluster-0 candidate ties with
		// one the walk met first on twice the cores, and fewer cores win.
		{"half-twin", [2]soc.Hz{2, 1}, [2]float64{2, 1}, [2]int{2, 4}},
	} {
		models := make([]*power.Model, 2)
		tables := make([]*soc.OPPTable, 2)
		for ci := range models {
			models[ci], tables[ci] = ungatedNexus5Cluster(t, tc.clock[ci], tc.leak[ci])
		}
		cases = append(cases, oracleCase{tc.name, platform.Nexus5().Power.BaseWatts, models, tables, tc.cores[:]})
	}
	return cases
}

// oracleDemands is the demand set each case is checked on: random demands,
// zero, the whole SoC's capacity and just past it, twice it, every option's
// exact c·f capacity and random candidates' exact joint capacities (both
// of which put a leaf at utilization exactly 1 and force ties).
func oracleDemands(s *clusterSearch, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	full := fullCapacity(s)
	demands := []float64{0, full, math.Nextafter(full, math.Inf(1)), 2 * full}
	for ci := range s.opts {
		for _, o := range s.opts[ci] {
			demands = append(demands, o.cf)
		}
	}
	for i := 0; i < 100; i++ {
		demands = append(demands, leafCapacity(s, randomLeaf(rng, s)))
	}
	for i := 0; i < 300; i++ {
		demands = append(demands, rng.Float64()*1.1*full)
	}
	return demands
}

// forEachOracleInput runs check on every case's demands, one subtest per
// case, and on the "perturbed" subtest's 400 decoded inputs, whose power
// parameters move the optimum across clusters so the bounds are exercised
// away from the calibrated profiles too.
func forEachOracleInput(t *testing.T, check func(t *testing.T, s *clusterSearch, c oracleCase, demand float64)) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, err := newClusterSearch(c.base, c.models, c.tables, c.counts)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range oracleDemands(s, 1) {
				check(t, s, c, d)
			}
		})
	}
	t.Run("perturbed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		data := make([]byte, 64)
		for i := 0; i < 400; i++ {
			rng.Read(data)
			c := oracleCase{name: "perturbed"}
			var demand float64
			c.base, c.models, c.tables, c.counts, demand = decodeClusterOracleInput(t, data)
			s, err := newClusterSearch(c.base, c.models, c.tables, c.counts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, s, c, demand)
		}
	})
}

// TestClusterOracleMatchesExhaustive is the search's contract: on every
// oracle case and demand the branch and bound returns the exhaustive
// walk's choice and watts bits.
func TestClusterOracleMatchesExhaustive(t *testing.T) {
	forEachOracleInput(t, func(t *testing.T, _ *clusterSearch, c oracleCase, demand float64) {
		checkClusterOracle(t, c.base, c.models, c.tables, c.counts, demand)
	})
}

// TestClusterOracleBoundBelowLeaves checks the cut itself rather than its
// outcome: at every internal node of the full walk, the bound the search
// compares against the incumbent (the larger of the monotone bound and the
// slackened energy-per-cycle bound) is at most the computed price of every
// feasible leaf below it, and no feasible leaf sits below a node whose
// capacity bound falls short of the demand.
func TestClusterOracleBoundBelowLeaves(t *testing.T) {
	forEachOracleInput(t, func(t *testing.T, s *clusterSearch, _ oracleCase, demand float64) {
		if !s.inRange {
			t.Fatal("price constants outside the energy-per-cycle bound's range: the check would not exercise it")
		}
		s.start(demand)
		last := len(s.opts) - 1
		var visit func(ci, cores int, capacity, stat, dyn, bound float64)
		visit = func(ci, cores int, capacity, stat, dyn, bound float64) {
			for k := range s.opts[ci] {
				o := &s.opts[ci][k]
				c, cp, st, dy := cores, capacity, stat+o.stat, dyn
				if o.point.Cores > 0 {
					c += o.point.Cores
					cp += o.cf
					dy += o.dyn
				}
				s.cur[ci] = k
				if ci == last {
					if c < 1 || cp < demand {
						continue
					}
					if w := s.price(s.cur, cp); !(bound <= w) {
						t.Fatalf("demand %v: leaf %v prices %v W below an ancestor's bound %v W", demand, s.cur, w, bound)
					}
					continue
				}
				tub := cp
				for i := ci + 1; i < len(s.opts); i++ {
					tub += s.maxCap[i]
				}
				b := math.Inf(1)
				if !(tub < demand) {
					b = max(bound, s.bound(ci, tub, cp, st, dy))
				}
				visit(ci+1, c, cp, st, dy, b)
			}
		}
		visit(0, 0, 0, s.base, 0, math.Inf(-1))
	})
}

// ungatedNexus5Cluster is a Nexus 5-calibrated cluster with no gated draw,
// every OPP frequency multiplied by clock and the leak coefficient by leak.
// Both multipliers are powers of two in use, so they scale prices exactly.
func ungatedNexus5Cluster(t *testing.T, clock soc.Hz, leak float64) (*power.Model, *soc.OPPTable) {
	t.Helper()
	plat := platform.Nexus5()
	points := plat.Table.Points()
	for i := range points {
		points[i].Freq *= clock
	}
	table, err := soc.NewOPPTable(points)
	if err != nil {
		t.Fatal(err)
	}
	p := plat.Power
	p.OfflineWatts = 0
	p.LeakCoeffWatts *= leak
	m, err := power.NewModel(p, table)
	if err != nil {
		t.Fatal(err)
	}
	return m, table
}

// FuzzClusterOracle: for any platform, power parameters scaled within what
// power.Params.Validate accepts and demand, the branch-and-bound search returns the exhaustive walk's choice and watts
// bits. The seed corpus is testdata/fuzz/FuzzClusterOracle. Run with
// `go test -run=NONE -fuzz=FuzzClusterOracle ./internal/core/`.
func FuzzClusterOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		base, models, tables, counts, demand := decodeClusterOracleInput(t, data)
		checkClusterOracle(t, base, models, tables, counts, demand)
	})
}

// decodeClusterOracleInput turns fuzz bytes into a search input. Bytes past
// the end read as zero, so every input decodes. Layout: platform (sorted
// alias index), flags (bit 0 doubles a homogeneous platform into two
// identical clusters), six scale bytes per cluster (Ceff, leak
// coefficient, leak exponent, offline watts, cache base, cache slope), a
// base-watts scale, a demand mode and eight demand bytes.
func decodeClusterOracleInput(t *testing.T, data []byte) (float64, []*power.Model, []*soc.OPPTable, []int, float64) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// scale maps a byte onto a factor in [0.25, 4).
	scale := func(b byte) float64 { return 0.25 * math.Exp2(float64(b)/64) }

	profiles := platform.Profiles()
	aliases := slices.Sorted(maps.Keys(profiles))
	plat := profiles[aliases[int(next())%len(aliases)]]()
	flags := next()
	specs := plat.ClusterSpecs()
	if flags&1 != 0 && len(specs) == 1 {
		specs = append(specs, specs[0])
	}
	models := make([]*power.Model, len(specs))
	tables := make([]*soc.OPPTable, len(specs))
	counts := make([]int, len(specs))
	for ci, cs := range specs {
		p := cs.Power
		p.CeffFarads *= scale(next())
		p.LeakCoeffWatts *= scale(next())
		p.LeakExponent = math.Max(1, p.LeakExponent*scale(next()))
		if b := next(); b == 0 {
			p.OfflineWatts = 0
		} else {
			// Up to ~60× the calibrated gated draw, past per-core leakage.
			p.OfflineWatts *= scale(b) * scale(b)
		}
		p.CacheBaseWatts *= scale(next())
		p.CacheSlopeWatts *= scale(next())
		m, err := power.NewModel(p, cs.Table)
		if err != nil {
			t.Fatalf("decoded params rejected: %v", err)
		}
		models[ci], tables[ci], counts[ci] = m, cs.Table, cs.NumCores
	}
	base := plat.Power.BaseWatts * scale(next())

	s, err := newClusterSearch(base, models, tables, counts)
	if err != nil {
		t.Fatal(err)
	}
	full := fullCapacity(s)
	mode := next()
	var raw [8]byte
	for i := range raw {
		raw[i] = next()
	}
	u := binary.LittleEndian.Uint64(raw[:])
	var demand float64
	switch mode % 4 {
	case 0: // anywhere up to a quarter past the whole SoC
		demand = float64(u>>11) / (1 << 53) * 1.25 * full
	case 1: // one option's exact capacity
		ci := int(u % uint64(len(s.opts)))
		demand = s.opts[ci][int(u>>8%uint64(len(s.opts[ci])))].cf
	case 2: // a candidate's exact joint capacity
		idx := make([]int, len(s.opts))
		for ci := range idx {
			idx[ci] = int(raw[ci%len(raw)]) % len(s.opts[ci])
		}
		demand = leafCapacity(s, idx)
	default: // the edges
		demand = []float64{0, full, math.Nextafter(full, math.Inf(1)), 2 * full}[u%4]
	}
	return base, models, tables, counts, demand
}
