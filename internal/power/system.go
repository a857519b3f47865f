package power

import (
	"errors"
	"fmt"

	"mobicore/internal/soc"
)

// SystemModel prices a whole SoC that may span several clusters with
// different silicon: each cluster has its own calibrated Model (C_eff,
// leakage curve, uncore), and the platform floor (rails, PMIC, idle
// peripherals) is paid exactly once. The homogeneous case is one cluster
// and reproduces Model.SystemWatts bit for bit. Evaluation reuses internal
// scratch buffers, so a SystemModel is not safe for concurrent use; each
// Sim owns its own instance.
type SystemModel struct {
	baseWatts   float64
	clusters    []*Model
	coreCluster []int // core id -> cluster index

	// per-call scratch for SystemWattsByCluster and SystemWatts (the
	// per-tick hot path)
	anyBusy    []float64
	topFreq    []soc.Hz
	scratchPer []float64
}

// NewSystemModel binds per-cluster models to a core->cluster mapping.
// baseWatts is the platform floor shared by all clusters; the per-cluster
// Params.BaseWatts fields are ignored here (ClusterWatts excludes them) so
// a profile can reuse a single-cluster calibration unchanged.
func NewSystemModel(baseWatts float64, clusters []*Model, coreCluster []int) (*SystemModel, error) {
	if baseWatts < 0 {
		return nil, errors.New("power: base watts must be non-negative")
	}
	if len(clusters) == 0 {
		return nil, errors.New("power: system model needs at least one cluster model")
	}
	if len(coreCluster) == 0 {
		return nil, errors.New("power: system model needs at least one core")
	}
	for id, ci := range coreCluster {
		if ci < 0 || ci >= len(clusters) {
			return nil, fmt.Errorf("power: core %d mapped to cluster %d outside [0,%d)", id, ci, len(clusters))
		}
		if clusters[ci] == nil {
			return nil, fmt.Errorf("power: nil model for cluster %d", ci)
		}
	}
	cs := make([]*Model, len(clusters))
	copy(cs, clusters)
	cc := make([]int, len(coreCluster))
	copy(cc, coreCluster)
	return &SystemModel{
		baseWatts:   baseWatts,
		clusters:    cs,
		coreCluster: cc,
		anyBusy:     make([]float64, len(cs)),
		topFreq:     make([]soc.Hz, len(cs)),
		scratchPer:  make([]float64, len(cs)),
	}, nil
}

// NumCores returns the number of cores the model covers.
func (m *SystemModel) NumCores() int { return len(m.coreCluster) }

// Cluster returns the model of cluster ci, for policies that price one
// domain at a time.
func (m *SystemModel) Cluster(ci int) (*Model, error) {
	if ci < 0 || ci >= len(m.clusters) {
		return nil, fmt.Errorf("power: cluster %d outside [0,%d)", ci, len(m.clusters))
	}
	return m.clusters[ci], nil
}

// SystemWatts evaluates total SoC power for per-core loads indexed by core
// id: platform base + Σ_clusters (cache + per-core terms).
func (m *SystemModel) SystemWatts(loads []CoreLoad) float64 {
	if len(m.clusters) == 1 {
		// Homogeneous fast path: no buffer traffic on the hot tick.
		return m.baseWatts + m.clusters[0].ClusterWatts(loads)
	}
	base, per := m.SystemWattsByCluster(loads, m.scratchPer)
	total := base
	for _, w := range per {
		total += w
	}
	return total
}

// SystemWattsByCluster evaluates the same sum as SystemWatts but keeps the
// terms separate: the platform floor and each cluster's share (per-core +
// cache terms, no floor), indexed like the cluster models. The per-cluster
// thermal network integrates these shares into its zones; summing
// base + Σ perCluster reproduces SystemWatts bit for bit. perCluster is
// reused as the output buffer when it has the right length (the per-tick
// hot path allocates nothing).
//
//mobicore:hotpath
func (m *SystemModel) SystemWattsByCluster(loads []CoreLoad, perCluster []float64) (base float64, out []float64) {
	if len(perCluster) != len(m.clusters) {
		//mobilint:ignore defensive resize for short buffers; the sim tick always passes a full-size one
		perCluster = make([]float64, len(m.clusters))
	}
	if len(m.clusters) == 1 {
		// Homogeneous fast path: no per-cluster regrouping on the hot tick.
		perCluster[0] = m.clusters[0].ClusterWatts(loads)
		return m.baseWatts, perCluster
	}
	// Single pass over cores with per-cluster accumulators; the per-core
	// and cache terms stay behind Model.CoreWatts/CacheWatts so the
	// multi-cluster path cannot drift from the homogeneous one.
	anyBusy, topFreq := m.anyBusy, m.topFreq
	for i := range perCluster {
		perCluster[i] = 0
		anyBusy[i] = 0
		topFreq[i] = 0
	}
	for id, ci := range m.coreCluster {
		if id >= len(loads) {
			break
		}
		c := &loads[id]
		perCluster[ci] += m.clusters[ci].coreWatts(c)
		if c.State != soc.StateOffline {
			if c.Util > anyBusy[ci] {
				anyBusy[ci] = c.Util
			}
			if c.OPP.Freq > topFreq[ci] {
				topFreq[ci] = c.OPP.Freq
			}
		}
	}
	for ci, cm := range m.clusters {
		perCluster[ci] += cm.CacheWatts(anyBusy[ci], topFreq[ci])
	}
	return m.baseWatts, perCluster
}
