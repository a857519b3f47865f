// Package policy defines the unified CPU-management interface the simulator
// drives. The thesis' central observation is that DVFS (governors) and DCS
// (hotplug) "are neither unified nor coordinated in the real implementation
// as they both have two different interfaces" (§1.1). This package is that
// pair of interfaces joined into one: a Manager decides frequency, online
// cores, and CPU bandwidth quota in a single step. Stock Android behaviour
// is recovered by composing a cpufreq.Governor with a hotplug.Policy
// (Compose); MobiCore implements Manager natively in internal/core.
package policy

import (
	"errors"
	"fmt"
	"time"

	"mobicore/internal/cpufreq"
	"mobicore/internal/hotplug"
	"mobicore/internal/soc"
)

// ClusterView describes one frequency domain of the platform as a Manager
// sees it: the domain's OPP table and the core ids it owns. Homogeneous
// platforms present a single view covering every core.
type ClusterView struct {
	Name    string
	Table   *soc.OPPTable
	CoreIDs []int
}

// ThermalSignal is one frequency domain's thermal-pressure view: where its
// zone sits relative to its trip point and what cap, if any, the thermal
// driver currently enforces. Managers use it to avoid decisions the
// thermal driver would immediately claw back — e.g. waking a big cluster
// whose zone is already above trip.
type ThermalSignal struct {
	// TempC is the zone's current temperature.
	TempC float64
	// HeadroomC is the margin to the trip point in °C: positive while
	// cool, negative above trip, +Inf when the zone's throttle is
	// disabled.
	HeadroomC float64
	// Throttling reports whether the zone's frequency cap is engaged.
	Throttling bool
	// CapFreq is the highest frequency the thermal driver currently
	// allows on the domain's own ladder.
	CapFreq soc.Hz
}

// Input is the unified observation a Manager receives every sampling
// period. Slices are indexed by core id and must not be mutated. They are
// also only valid for the duration of the Decide call: the engine pools
// and refills them between samples, so a manager that needs history must
// copy values out (Slice already copies; see core/mobicore.go for the
// scalar-retention idiom).
type Input struct {
	// Now is the simulation time; Period the time since the last sample.
	Now    time.Duration
	Period time.Duration
	// Util is per-core busy fraction over the period in [0,1]; offline
	// cores carry 0.
	Util []float64
	// Online flags each core's hotplug state.
	Online []bool
	// CurFreq is each core's programmed frequency.
	CurFreq []soc.Hz
	// Quota is the currently programmed global CPU bandwidth in (0,1].
	Quota float64
	// Table is the platform OPP table. On heterogeneous platforms it is
	// the representative (performance-cluster) table; cluster-aware
	// managers must resolve tables through Clusters.
	Table *soc.OPPTable
	// Clusters lists the platform's frequency domains. Nil means one
	// domain: Table covering every core.
	Clusters []ClusterView
	// Thermal lists per-domain thermal pressure, indexed like the views
	// ClusterViews returns. Nil means no thermal telemetry is available
	// (managers must then assume unbounded headroom).
	Thermal []ThermalSignal
}

// Slice returns the observation restricted to one frequency domain: core
// indices local to the domain, the domain's table installed, no nested
// cluster views, and — when the input carries thermal telemetry — the
// domain's own ThermalSignal as the slice's single entry, so per-domain
// managers see their cluster's thermal pressure.
func (in Input) Slice(v ClusterView) Input {
	sub := Input{
		Now:     in.Now,
		Period:  in.Period,
		Util:    make([]float64, len(v.CoreIDs)),
		Online:  make([]bool, len(v.CoreIDs)),
		CurFreq: make([]soc.Hz, len(v.CoreIDs)),
		Quota:   in.Quota,
		Table:   v.Table,
	}
	for j, id := range v.CoreIDs {
		sub.Util[j] = in.Util[id]
		sub.Online[j] = in.Online[id]
		sub.CurFreq[j] = in.CurFreq[id]
	}
	if in.Thermal != nil {
		if ci := in.domainIndex(v); ci >= 0 && ci < len(in.Thermal) {
			sub.Thermal = []ThermalSignal{in.Thermal[ci]}
		}
	}
	return sub
}

// domainIndex locates v among the input's frequency domains. Core ids are
// disjoint across domains, so the first id identifies the owner uniquely.
func (in Input) domainIndex(v ClusterView) int {
	if len(v.CoreIDs) == 0 {
		return -1
	}
	for ci, w := range in.ClusterViews() {
		if len(w.CoreIDs) > 0 && w.CoreIDs[0] == v.CoreIDs[0] {
			return ci
		}
	}
	return -1
}

// ClusterViews returns the input's frequency domains, synthesizing the
// single-domain view from Table when Clusters is nil.
func (in Input) ClusterViews() []ClusterView {
	if len(in.Clusters) > 0 {
		return in.Clusters
	}
	ids := make([]int, len(in.Util))
	for i := range ids {
		ids[i] = i
	}
	return []ClusterView{{Name: "cpu", Table: in.Table, CoreIDs: ids}}
}

// Validate rejects malformed inputs.
func (in Input) Validate() error {
	if in.Table == nil || in.Table.Len() == 0 {
		return errors.New("policy: input missing OPP table")
	}
	n := len(in.Util)
	if n == 0 || len(in.Online) != n || len(in.CurFreq) != n {
		return fmt.Errorf("policy: inconsistent input lengths util=%d online=%d freq=%d",
			len(in.Util), len(in.Online), len(in.CurFreq))
	}
	if !(in.Quota > 0 && in.Quota <= 1) {
		return fmt.Errorf("policy: quota %v outside (0,1]", in.Quota)
	}
	for i, u := range in.Util {
		if !(u >= 0 && u <= 1) {
			return fmt.Errorf("policy: core %d utilization %v outside [0,1]", i, u)
		}
	}
	if in.Thermal != nil {
		if want := len(in.ClusterViews()); len(in.Thermal) != want {
			return fmt.Errorf("policy: %d thermal signals for %d domains", len(in.Thermal), want)
		}
		for ci, ts := range in.Thermal {
			// Every zone cap names an operating point, so CapFreq == 0 can
			// only mean the entry was never filled in — reject it loudly
			// rather than letting a zero-valued signal (headroom 0) read
			// as "thermally pressured" and silently park big clusters.
			if ts.CapFreq == 0 {
				return fmt.Errorf("policy: thermal signal for domain %d is unfilled (zero CapFreq)", ci)
			}
		}
	}
	return nil
}

// OverallUtil averages utilization over online cores (§2.2's definition).
func (in Input) OverallUtil() float64 {
	sum, n := 0.0, 0
	for i, u := range in.Util {
		if in.Online[i] {
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Decision is a Manager's complete resource allocation for the next period.
type Decision struct {
	// TargetFreq is the desired frequency per core id; entries for cores
	// that end up offline are ignored. Each frequency must be an
	// operating point of the owning cluster's table.
	TargetFreq []soc.Hz
	// OnlineCores is the desired number of online cores in [1, numCores],
	// applied lowest-id first. Ignored when OnlineVec is set.
	OnlineCores int
	// OnlineVec is the desired online-core count per cluster, indexed
	// like Input.Clusters. A cluster entry may be 0 (the whole domain
	// parked) as long as the vector sums to at least one core. Nil means
	// use the flat OnlineCores.
	OnlineVec []int
	// Quota is the CPU bandwidth for the next period in (0,1].
	Quota float64
}

// Validate checks a decision against the table and core count — the
// homogeneous single-domain check. Cluster-aware callers use
// ValidateClustered.
func (d Decision) Validate(table *soc.OPPTable, numCores int) error {
	ids := make([]int, numCores)
	for i := range ids {
		ids[i] = i
	}
	return d.ValidateClustered([]ClusterView{{Name: "cpu", Table: table, CoreIDs: ids}}, numCores)
}

// ValidateClustered checks a decision against the platform's frequency
// domains: every per-core target must be an operating point of the owning
// cluster's table, and the online allocation (flat or per-cluster) must
// keep at least one core up.
func (d Decision) ValidateClustered(views []ClusterView, numCores int) error {
	if len(views) == 0 {
		return errors.New("policy: no cluster views to validate against")
	}
	if len(d.TargetFreq) != numCores {
		return fmt.Errorf("policy: decision has %d frequencies for %d cores", len(d.TargetFreq), numCores)
	}
	for ci, v := range views {
		if v.Table == nil || v.Table.Len() == 0 {
			return fmt.Errorf("policy: cluster %d has no OPP table", ci)
		}
		for _, id := range v.CoreIDs {
			if id < 0 || id >= numCores {
				return fmt.Errorf("policy: cluster %s core id %d outside [0,%d)", v.Name, id, numCores)
			}
			if !v.Table.Contains(d.TargetFreq[id]) {
				return fmt.Errorf("policy: core %d target %v is not an operating point of cluster %s",
					id, d.TargetFreq[id], v.Name)
			}
		}
	}
	if d.OnlineVec != nil {
		if len(d.OnlineVec) != len(views) {
			return fmt.Errorf("policy: online vector has %d entries for %d clusters", len(d.OnlineVec), len(views))
		}
		total := 0
		for ci, n := range d.OnlineVec {
			if n < 0 || n > len(views[ci].CoreIDs) {
				return fmt.Errorf("policy: cluster %s online target %d outside [0,%d]",
					views[ci].Name, n, len(views[ci].CoreIDs))
			}
			total += n
		}
		if total < 1 {
			return errors.New("policy: online vector parks every core")
		}
	} else if d.OnlineCores < 1 || d.OnlineCores > numCores {
		return fmt.Errorf("policy: online core target %d outside [1,%d]", d.OnlineCores, numCores)
	}
	if !(d.Quota > 0 && d.Quota <= 1) {
		return fmt.Errorf("policy: quota %v outside (0,1]", d.Quota)
	}
	return nil
}

// Manager is a complete CPU management policy: one decision covering DVFS,
// DCS, and bandwidth. Implementations must be deterministic.
type Manager interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide maps one observation to one allocation.
	Decide(in Input) (Decision, error)
	// Reset clears internal state between runs.
	Reset()
}

// Composite adapts a (governor, hotplug) pair into a Manager — the stock
// Android arrangement where the two mechanisms run independently. The
// governor is consulted after the hotplug policy, but neither sees the
// other's decision, reproducing the lack of coordination the thesis
// criticizes. Quota is always 1: stock Android leaves bandwidth alone.
//
// On a multi-cluster platform (built via ComposeClustered) each cluster is
// an independent cpufreq policy domain with its own governor instance, as
// Linux runs one governor per policy; hotplug remains global.
type Composite struct {
	name       string
	domainGovs []cpufreq.Governor // one per frequency domain; len 1 when single-domain
	plug       hotplug.Policy
}

var _ Manager = (*Composite)(nil)

// Compose builds a single-domain Composite manager.
func Compose(governor cpufreq.Governor, plug hotplug.Policy) (*Composite, error) {
	if governor == nil || plug == nil {
		return nil, errors.New("policy: Compose requires a governor and a hotplug policy")
	}
	return &Composite{
		name:       governor.Name() + "+" + plug.Name(),
		domainGovs: []cpufreq.Governor{governor},
		plug:       plug,
	}, nil
}

// ComposeClustered builds a Composite manager with one governor instance
// per frequency domain, constructed by newGov against each domain's table —
// Linux's one-governor-per-cpufreq-policy arrangement on big.LITTLE.
func ComposeClustered(govName string, newGov func(*soc.OPPTable) (cpufreq.Governor, error), plug hotplug.Policy, tables []*soc.OPPTable) (*Composite, error) {
	if newGov == nil || plug == nil {
		return nil, errors.New("policy: ComposeClustered requires a governor factory and a hotplug policy")
	}
	if len(tables) == 0 {
		return nil, errors.New("policy: ComposeClustered requires at least one cluster table")
	}
	govs := make([]cpufreq.Governor, len(tables))
	for i, t := range tables {
		g, err := newGov(t)
		if err != nil {
			return nil, fmt.Errorf("policy: building %s for cluster %d: %w", govName, i, err)
		}
		govs[i] = g
	}
	return &Composite{
		name:       govName + "+" + plug.Name(),
		domainGovs: govs,
		plug:       plug,
	}, nil
}

// Name implements Manager.
func (c *Composite) Name() string { return c.name }

// Governor exposes the wrapped governor — the first domain's instance when
// clustered (used by experiments that need to program a userspace speed).
func (c *Composite) Governor() cpufreq.Governor { return c.domainGovs[0] }

// Decide implements Manager: hotplug and governor each act on the same
// observation without coordination. With per-domain governors installed,
// each cluster's governor sees only its own cores and table.
func (c *Composite) Decide(in Input) (Decision, error) {
	if err := in.Validate(); err != nil {
		return Decision{}, err
	}
	cores, err := c.plug.TargetCores(hotplug.Input{Now: in.Now, Util: in.Util, Online: in.Online})
	if err != nil {
		return Decision{}, fmt.Errorf("policy: hotplug %s: %w", c.plug.Name(), err)
	}
	if len(c.domainGovs) > 1 {
		freqs, err := c.domainTargets(in)
		if err != nil {
			return Decision{}, err
		}
		return Decision{TargetFreq: freqs, OnlineCores: cores, Quota: 1}, nil
	}
	gov := c.domainGovs[0]
	freqs, err := gov.Target(cpufreq.Input{
		Now:     in.Now,
		Period:  in.Period,
		Util:    in.Util,
		Online:  in.Online,
		CurFreq: in.CurFreq,
		Table:   in.Table,
	})
	if err != nil {
		return Decision{}, fmt.Errorf("policy: governor %s: %w", gov.Name(), err)
	}
	return Decision{TargetFreq: freqs, OnlineCores: cores, Quota: 1}, nil
}

// domainTargets runs each cluster's governor against the slice of the
// observation it owns and scatters the per-domain targets back to global
// core ids.
func (c *Composite) domainTargets(in Input) ([]soc.Hz, error) {
	views := in.ClusterViews()
	if len(views) != len(c.domainGovs) {
		return nil, fmt.Errorf("policy: %s built for %d clusters, input has %d",
			c.name, len(c.domainGovs), len(views))
	}
	out := make([]soc.Hz, len(in.Util))
	for ci, v := range views {
		s := in.Slice(v)
		freqs, err := c.domainGovs[ci].Target(cpufreq.Input{
			Now:     s.Now,
			Period:  s.Period,
			Util:    s.Util,
			Online:  s.Online,
			CurFreq: s.CurFreq,
			Table:   s.Table,
		})
		if err != nil {
			return nil, fmt.Errorf("policy: governor %s (cluster %s): %w", c.domainGovs[ci].Name(), v.Name, err)
		}
		for j, id := range v.CoreIDs {
			out[id] = freqs[j]
		}
	}
	return out, nil
}

// Reset implements Manager.
func (c *Composite) Reset() {
	for _, g := range c.domainGovs {
		g.Reset()
	}
	c.plug.Reset()
}

// AndroidDefault builds the baseline the thesis evaluates against: the
// ondemand governor combined with the default load-threshold hotplug
// (mpdecision disabled so DCS can act, §3.1/§6).
func AndroidDefault(table *soc.OPPTable) (*Composite, error) {
	gov, err := cpufreq.New("ondemand", table)
	if err != nil {
		return nil, err
	}
	plug, err := hotplug.NewLoad(hotplug.DefaultLoadTunables())
	if err != nil {
		return nil, err
	}
	return Compose(gov, plug)
}

// Pinned builds a manager that fixes both the frequency and the online core
// count — the measurement configuration of Figures 3–7 (userspace governor
// plus a fixed hotplug).
func Pinned(table *soc.OPPTable, freq soc.Hz, cores int) (*Composite, error) {
	gov, err := cpufreq.NewUserspace(table)
	if err != nil {
		return nil, err
	}
	if err := gov.SetSpeed(freq); err != nil {
		return nil, err
	}
	plug, err := hotplug.NewFixed(cores)
	if err != nil {
		return nil, err
	}
	return Compose(gov, plug)
}
