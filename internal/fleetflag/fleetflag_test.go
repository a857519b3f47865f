package fleetflag

import (
	"math"
	"reflect"
	"testing"

	"mobicore/internal/platform"
	"mobicore/internal/stack"
)

// TestAllPolicies pins "-policies all": both fleet CLIs sweep exactly
// these nine stacks, and every one resolves on every platform.
func TestAllPolicies(t *testing.T) {
	want := []string{
		"android-default", "conservative+load", "interactive+load", "mobicore",
		"mobicore-threshold", "ondemand+offline", "oracle", "pin-max+mpdecision",
		"schedutil+load",
	}
	got := ExpandList("all", AllPolicies())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpandList(all, AllPolicies()) = %v, want %v", got, want)
	}
	for _, newPlat := range platform.Profiles() {
		plat := newPlat()
		for _, name := range got {
			if _, err := stack.Build(name, plat); err != nil {
				t.Errorf("%s on %s: %v", name, plat.Name, err)
			}
		}
	}
}

func TestLists(t *testing.T) {
	if got, want := SplitList(" nexus5, ,sd855,"), []string{"nexus5", "sd855"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SplitList = %v, want %v", got, want)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %v, want nil", got)
	}
	all := []string{"nexus6p", "sd855", "nexus5"}
	if got, want := ExpandList(" all ", all), []string{"nexus5", "nexus6p", "sd855"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ExpandList(all) = %v, want %v", got, want)
	}
	if all[0] != "nexus6p" {
		t.Error("ExpandList sorted its argument in place")
	}
	if got, want := ExpandList("sd855,nexus5", all), []string{"sd855", "nexus5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ExpandList(list) = %v, want %v", got, want)
	}
}

// TestSeedRange: both fleet CLIs turn "-seed first -seeds n" into a seed
// list through SeedRange, so a count below one must be an error there and
// never a panic or an empty matrix.
func TestSeedRange(t *testing.T) {
	tests := []struct {
		first int64
		n     int
		want  []int64
		err   bool
	}{
		{first: 7, n: 3, want: []int64{7, 8, 9}},
		{first: 1, n: 1, want: []int64{1}},
		{first: -2, n: 2, want: []int64{-2, -1}},
		{first: 1, n: 0, err: true},
		{first: 1, n: -1, err: true},
		{first: 1, n: math.MinInt, err: true},
	}
	for _, tt := range tests {
		got, err := SeedRange(tt.first, tt.n)
		if tt.err {
			if err == nil || got != nil {
				t.Errorf("SeedRange(%d, %d) = %v, %v; want an error", tt.first, tt.n, got, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tt.want) {
			t.Errorf("SeedRange(%d, %d) = %v, %v; want %v", tt.first, tt.n, got, err, tt.want)
		}
	}
}
