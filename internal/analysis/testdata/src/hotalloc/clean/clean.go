// Package clean holds hotalloc clean cases: unannotated functions may
// allocate freely, cold error branches are exempt, and documented
// mobilint:ignore suppressions hold.
package clean

import "fmt"

// Mean is annotated but clean: pure arithmetic on the warm path, and
// the error return is a cold branch the steady-state tick never takes,
// so its fmt.Errorf is not charged.
//
//mobicore:hotpath
func Mean(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("mean of %d values", len(vals))
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	return total / float64(len(vals)), nil
}

// Scale is annotated and uses a documented suppression for its one-time
// buffer growth — the mobilint:ignore comment keeps it quiet.
//
//mobicore:hotpath
func Scale(dst, vals []float64, k float64) []float64 {
	if cap(dst) < len(vals) {
		//mobilint:ignore one-time buffer growth; steady-state callers pass a full-size buffer
		dst = make([]float64, len(vals))
	}
	dst = dst[:len(vals)]
	for i, v := range vals {
		dst[i] = v * k
	}
	return dst
}

// Resize is a generic annotated buffer helper: its one-time growth is
// suppressed like Scale's, and moving T values between T-typed locations
// boxes nothing.
//
//mobicore:hotpath
func Resize[T any](b []T, n int, fill T) []T {
	if cap(b) < n {
		//mobilint:ignore one-time buffer growth; steady-state reuse hits the resize path
		b = make([]T, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = fill
	}
	return b
}

// Build is not annotated, so its allocations are nobody's business.
func Build(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
