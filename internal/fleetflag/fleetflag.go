// Package fleetflag parses the matrix flags the fleet CLIs share
// (mobifleet runs a matrix in-process, mobifleetd coordinates one across
// workers), so "-policies all" and the list syntax mean the same in both.
package fleetflag

import (
	"fmt"
	"strings"

	"mobicore/internal/natsort"
	"mobicore/internal/stack"
)

// AllPolicies is what "-policies all" expands to: the named stacks, the
// stock per-cluster governor stacks the paper's comparisons run against
// (ondemand+load is android-default, so it is not repeated), and the two
// blunt baselines the scenario experiments rank — max pinning with hotplug
// disabled and ondemand with the load-packing offliner.
func AllPolicies() []string {
	return append(stack.Names(),
		"conservative+load", "interactive+load", "schedutil+load",
		"pin-max+mpdecision", "ondemand+offline")
}

// SplitList parses a comma-separated flag value, dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// ExpandList is SplitList with "all" expanding to the full set in natural
// order (nexus5 before nexus6p, seed labels numeric).
func ExpandList(s string, all []string) []string {
	if strings.TrimSpace(s) == "all" {
		out := append([]string(nil), all...)
		natsort.Strings(out)
		return out
	}
	return SplitList(s)
}

// SeedRange returns the n consecutive seeds starting at first — the
// "-seed first -seeds n" pair. A matrix needs at least one seed, so n < 1
// is an error.
func SeedRange(first int64, n int) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("-seeds must be at least 1, got %d", n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out, nil
}
