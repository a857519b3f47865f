// Package stack resolves policy-stack names to policy.Manager instances:
// the named managers of the thesis ("mobicore", "android-default",
// "oracle") and the composable "<governor>+<hotplug>" forms. Governor
// stacks take the N-domain path on every platform; only MobiCore and the
// oracle keep a separate homogeneous construction (see Build).
// It is the single construction path shared by the public facade, the
// fleet driver's name-based specs, and the CLIs, so the set of accepted
// names cannot drift between layers.
package stack

import (
	"fmt"
	"strings"

	"mobicore/internal/core"
	"mobicore/internal/cpufreq"
	"mobicore/internal/hotplug"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// Named policy stacks.
const (
	// MobiCore is the paper's contribution: the full energy-model guided
	// hybrid manager (DVFS + DCS + bandwidth in one decision).
	MobiCore = "mobicore"
	// MobiCoreThreshold is MobiCore with the §5.2 threshold rule for core
	// re-evaluation instead of the energy-model search.
	MobiCoreThreshold = "mobicore-threshold"
	// AndroidDefault is the baseline the thesis evaluates against: the
	// ondemand governor plus the default load hotplug.
	AndroidDefault = "android-default"
	// Oracle is the §4.2 exhaustive energy-model optimizer.
	Oracle = "oracle"
)

// Names lists the named stacks (the composable "<governor>+<hotplug>"
// forms are additional).
func Names() []string {
	return []string{AndroidDefault, MobiCore, MobiCoreThreshold, Oracle}
}

// Build resolves a policy name against a platform. Each call returns a
// fresh manager, so one name can seed many concurrent sessions.
//
// Governor stacks ("android-default" is "ondemand+load") always run one
// governor instance per cluster as independent cpufreq policy domains, as
// Linux does; with one cluster that is the single-domain Composite. Two
// names still build differently on single- and multi-cluster platforms,
// each for the measured reason given at its fork: MobiCore (and its
// threshold variant), which runs one instance per cluster under an
// energy-aware gate on big.LITTLE, and the oracle.
func Build(name string, plat platform.Platform) (policy.Manager, error) {
	switch name {
	case "", AndroidDefault:
		return composed("ondemand+load", plat)
	case MobiCore, MobiCoreThreshold:
		withModel := name == MobiCore
		// One cluster via core.Clustered: same bytes, +10% scenario-fleet alloc_kb_per_cell.
		if plat.Heterogeneous() {
			mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), withModel)
			if err != nil {
				return nil, err
			}
			return mgr, nil
		}
		if !withModel {
			return core.New(plat.Table, core.DefaultTunables())
		}
		model, err := power.NewModel(plat.Power, plat.Table)
		if err != nil {
			return nil, err
		}
		return core.NewWithModel(plat.Table, core.DefaultTunables(), model)
	case Oracle:
		// One cluster via the joint search is not byte-identical: it prices c·coreW, not n terms.
		if plat.Heterogeneous() {
			o, err := core.NewClusteredOracleForPlatform(plat, 0.15)
			if err != nil {
				return nil, err
			}
			return o, nil
		}
		model, err := power.NewModel(plat.Power, plat.Table)
		if err != nil {
			return nil, err
		}
		return core.NewOracle(plat.Table, model, 0.15)
	}
	return composed(name, plat)
}

// composed parses "<governor>+<hotplug>".
func composed(name string, plat platform.Platform) (policy.Manager, error) {
	govName, plugName, ok := strings.Cut(name, "+")
	if !ok || govName == "" || plugName == "" {
		return nil, fmt.Errorf("unknown policy %q (want one of %v or \"governor+hotplug\")",
			name, Names())
	}
	plug, err := buildHotplug(plugName)
	if err != nil {
		return nil, err
	}
	mgr, err := policy.ComposeClustered(govName,
		func(t *soc.OPPTable) (cpufreq.Governor, error) { return cpufreq.New(govName, t) },
		plug, plat.ClusterTables())
	if err != nil {
		return nil, err
	}
	return mgr, nil
}

// Hotplugs lists the hotplug policy names composable on the right of
// "<governor>+<hotplug>" ("fixed-N" stands for any N >= 1).
func Hotplugs() []string {
	return []string{"load", "mpdecision", "offline", "fixed-N"}
}

func buildHotplug(name string) (hotplug.Policy, error) {
	switch name {
	case "load":
		return hotplug.NewLoad(hotplug.DefaultLoadTunables())
	case "mpdecision":
		return hotplug.MPDecision{}, nil
	case "offline":
		return hotplug.NewOffliner(hotplug.DefaultOfflinerTunables())
	}
	var n int
	if _, err := fmt.Sscanf(name, "fixed-%d", &n); err == nil {
		return hotplug.NewFixed(n)
	}
	return nil, fmt.Errorf("unknown hotplug policy %q (want load, mpdecision, offline, or fixed-N)", name)
}
