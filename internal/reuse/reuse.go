// Package reuse resizes pooled slices in place. The engine keeps its
// per-session and per-window buffers across sessions and ticks; these
// helpers hand a buffer back at the requested length, reusing its backing
// array whenever the capacity suffices. Growth happens only on first use
// or when a larger topology arrives, so the allocating branches are cold
// and steady-state reuse never allocates.
package reuse

// Zeroed returns b resized to length n with every element set to T's zero
// value.
//
//mobicore:hotpath
func Zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		//mobilint:ignore one-time buffer growth; steady-state reuse hits the resize path
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Copy returns dst resized to len(src) and filled with src's elements.
//
//mobicore:hotpath
func Copy[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		//mobilint:ignore one-time buffer growth; steady-state reuse hits the resize path
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}
