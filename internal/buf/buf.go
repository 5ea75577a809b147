// Package buf holds the buffer-reuse primitives shared by the
// allocation-free arenas in order, grammar and core: resize a slice
// to a requested length, reusing its backing array whenever it is
// large enough.
package buf

import "slices"

// Grow returns a slice of length n, reusing s's backing array when it
// is large enough. Contents are unspecified.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// GrowClear returns a zeroed slice of length n, reusing s's backing
// array when it is large enough.
func GrowClear[T any](s []T, n int) []T {
	s = Grow(s, n)
	clear(s)
	return s
}

// GrowFill returns a slice of length n with every element set to fill,
// reusing s's backing array when it is large enough. Unlike Grow it
// over-allocates on growth (append's amortization), for scratch whose
// requested length creeps up monotonically across calls — the
// per-node table of hypergraph.WeakComponentsInto on a graph that
// gains nodes — where exact-size reallocation would pay an allocation
// every call.
func GrowFill[T any](s []T, n int, fill T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}
