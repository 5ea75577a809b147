package query

import (
	"math/rand"
	"testing"

	"graphrepair/internal/core"
)

// TestNeighborsAllocationBudget pins the pooled-scratch steady state
// of the hot query paths. After the pool is warm, a Neighbors call
// allocates only its result copy plus the per-call resolver closures
// (constant, independent of prior queries); Locate allocates only the
// returned Location's three slices. This is the guard that keeps the
// compile/query split from regressing to per-call maps and adjacency
// rebuilds.
func TestNeighborsAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 60, 180, 3)
	e, _ := buildEngine(t, g, 3, core.DefaultOptions())
	n := e.NumNodes()

	// Warm the scratch pool and any one-time state.
	for k := int64(1); k <= n; k++ {
		if _, err := e.Neighbors(k, Both); err != nil {
			t.Fatal(err)
		}
	}

	k := int64(0)
	if a := testing.AllocsPerRun(200, func() {
		k = k%n + 1
		if _, err := e.Neighbors(k, Both); err != nil {
			t.Fatal(err)
		}
	}); a > 8 {
		t.Errorf("Neighbors allocates %v/op in steady state, want ≤ 8 (result copy + resolver closures)", a)
	}

	if a := testing.AllocsPerRun(200, func() {
		k = k%n + 1
		if _, err := e.Locate(k); err != nil {
			t.Fatal(err)
		}
	}); a > 4 {
		t.Errorf("Locate allocates %v/op, want ≤ 4 (the returned Location's slices)", a)
	}
}

// TestQueryAllocs pins the int-ID product search: once the scratch
// pool is warm, a Reachable, Distance or RPQ Matches call allocates
// nothing, whatever pair it answers.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under -race")
	}
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 60, 180, 3)
	e, _ := buildEngine(t, g, 3, core.DefaultOptions())
	n := e.NumNodes()
	rpq := e.NewRPQ(PathNFA(1, 2, 3))
	queries := []struct {
		name string
		run  func(u, v int64) error
	}{
		{"Reachable", func(u, v int64) error { _, err := e.Reachable(u, v); return err }},
		{"Distance", func(u, v int64) error { _, err := e.Distance(u, v); return err }},
		{"Matches", func(u, v int64) error { _, err := rpq.Matches(u, v); return err }},
	}
	for _, q := range queries {
		// Warm up on every pair, so every scratch buffer has reached
		// its largest size.
		for u := int64(1); u <= n; u++ {
			for v := int64(1); v <= n; v++ {
				if err := q.run(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		k := int64(0)
		if a := testing.AllocsPerRun(500, func() {
			k = k%(n*n) + 1
			if err := q.run(1+(k-1)/n, 1+(k-1)%n); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s allocates %v/op in steady state, want 0", q.name, a)
		}
	}
}
