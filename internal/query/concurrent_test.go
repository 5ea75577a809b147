package query

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"graphrepair/internal/core"
)

// concurrentWorkload precomputes, single-threaded, the expected answer
// of every query the concurrent goroutines will issue, so the race
// test also asserts result stability under contention (not just
// -race cleanliness).
type concurrentWorkload struct {
	u, v      []int64
	reach     []bool
	dist      []int64
	neighbors [][]int64
	rpqMatch  []bool
}

func buildConcurrentWorkload(t *testing.T, e *Engine, r *RPQ, queries int, seed int64) *concurrentWorkload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &concurrentWorkload{}
	n := e.NumNodes()
	for q := 0; q < queries; q++ {
		u := 1 + rng.Int63n(n)
		v := 1 + rng.Int63n(n)
		w.u = append(w.u, u)
		w.v = append(w.v, v)
		ok, err := e.Reachable(u, v)
		if err != nil {
			t.Fatal(err)
		}
		w.reach = append(w.reach, ok)
		d, err := e.Distance(u, v)
		if err != nil {
			t.Fatal(err)
		}
		w.dist = append(w.dist, d)
		nb, err := e.Neighbors(u, Both)
		if err != nil {
			t.Fatal(err)
		}
		w.neighbors = append(w.neighbors, nb)
		m, err := r.Matches(u, v)
		if err != nil {
			t.Fatal(err)
		}
		w.rpqMatch = append(w.rpqMatch, m)
	}
	return w
}

// TestConcurrentQueries is the shared-engine race regression test: N
// goroutines hammer one Engine (and one prepared RPQ) with the full
// query surface — Reachable, Neighbors, Distance, RPQ matches, plus
// the aggregates — and every answer must equal the single-threaded
// precomputed one. Under -race it checks that the query phase writes
// nothing but its pooled scratch.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	g := randomGraph(rng, 80, 240, 3)
	res, err := core.Compress(g, 3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.NewRPQContext(context.Background(), StarNFA(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	w := buildConcurrentWorkload(t, e, r, 40, 1009)
	wantComp := e.ComponentCount()
	wantMin, wantMax, err := e.DegreeStats(Both)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for wkr := 0; wkr < goroutines; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for q := range w.u {
					i := (q + wkr*7) % len(w.u) // different interleavings per goroutine
					u, v := w.u[i], w.v[i]
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					ok, err := e.ReachableContext(ctx, u, v)
					if err == nil && ok != w.reach[i] {
						t.Errorf("worker %d: Reachable(%d,%d) = %v, want %v", wkr, u, v, ok, w.reach[i])
					}
					d, derr := e.DistanceContext(ctx, u, v)
					if derr == nil && d != w.dist[i] {
						t.Errorf("worker %d: Distance(%d,%d) = %d, want %d", wkr, u, v, d, w.dist[i])
					}
					nb, nerr := e.NeighborsContext(ctx, u, Both)
					if nerr == nil && !equalIDs(nb, w.neighbors[i]) {
						t.Errorf("worker %d: Neighbors(%d) = %v, want %v", wkr, u, nb, w.neighbors[i])
					}
					m, merr := r.MatchesContext(ctx, u, v)
					if merr == nil && m != w.rpqMatch[i] {
						t.Errorf("worker %d: RPQ(%d,%d) = %v, want %v", wkr, u, v, m, w.rpqMatch[i])
					}
					cancel()
					for _, err := range []error{err, derr, nerr, merr} {
						if err != nil {
							errs <- err
							return
						}
					}
				}
				if c := e.ComponentCount(); c != wantComp {
					t.Errorf("worker %d: ComponentCount = %d, want %d", wkr, c, wantComp)
				}
				if mn, mx, err := e.DegreeStats(Both); err != nil {
					errs <- err
					return
				} else if mn != wantMin || mx != wantMax {
					t.Errorf("worker %d: DegreeStats = (%d,%d), want (%d,%d)", wkr, mn, mx, wantMin, wantMax)
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentEngineBuildAndQuery races engine construction against
// nothing (builds are per-goroutine) but shares the *grammar*: the
// compile phase must treat the grammar as read-only, so any number of
// engines may be compiled from one grammar concurrently.
func TestConcurrentEngineBuildAndQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 40, 120, 2)
	res, err := core.Compress(g, 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := New(res.Grammar)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Reachable(1, e.NumNodes()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
