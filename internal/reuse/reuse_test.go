package reuse

import (
	"slices"
	"testing"
)

// TestZeroed: a buffer with the capacity keeps its backing array and is
// zeroed to the requested length; a short one is replaced.
func TestZeroed(t *testing.T) {
	b := []int{1, 2, 3, 4}
	got := Zeroed(b[:1], 3)
	if !slices.Equal(got, []int{0, 0, 0}) || &got[0] != &b[0] {
		t.Errorf("Zeroed(cap 4, 3) = %v (reused: %v), want [0 0 0] in place", got, &got[0] == &b[0])
	}
	if b[3] != 4 {
		t.Error("Zeroed cleared past the requested length")
	}
	if got := Zeroed(b, 6); !slices.Equal(got, make([]int, 6)) {
		t.Errorf("Zeroed(cap 4, 6) = %v, want six zeros", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { b = Zeroed(b, 4) }); allocs != 0 {
		t.Errorf("Zeroed within capacity allocates %v times", allocs)
	}
}

// TestCopy: the result holds src's elements, reusing dst when it can.
func TestCopy(t *testing.T) {
	dst := make([]bool, 1, 4)
	got := Copy(dst, []bool{true, false, true})
	if !slices.Equal(got, []bool{true, false, true}) || &got[0] != &dst[0] {
		t.Errorf("Copy(cap 4) = %v (reused: %v)", got, &got[0] == &dst[0])
	}
	if got := Copy(dst[:0], []bool{true, true, true, true, true}); !slices.Equal(got, []bool{true, true, true, true, true}) {
		t.Errorf("Copy(grow) = %v", got)
	}
	if got := Copy(dst, nil); len(got) != 0 {
		t.Errorf("Copy(nil src) = %v, want empty", got)
	}
}
