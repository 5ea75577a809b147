package query

import (
	"errors"
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// bruteDistance is BFS distance on the uncompressed graph (all edges
// weight 1).
func bruteDistance(g *hypergraph.Graph, u, v hypergraph.NodeID) int64 {
	if u == v {
		return 0
	}
	dist := map[hypergraph.NodeID]int64{u: 0}
	queue := []hypergraph.NodeID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, id := range g.Incident(x) {
			att := g.Att(id)
			if len(att) != 2 || att[0] != x {
				continue
			}
			if _, ok := dist[att[1]]; !ok {
				dist[att[1]] = dist[x] + 1
				if att[1] == v {
					return dist[att[1]]
				}
				queue = append(queue, att[1])
			}
		}
	}
	return Unreachable
}

func TestDistanceOnChain(t *testing.T) {
	n := 100
	g := hypergraph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	res, err := core.Compress(g, 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	derived := mustDerive(t, res.Grammar)
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 200; q++ {
		u := 1 + rng.Int63n(e.NumNodes())
		v := 1 + rng.Int63n(e.NumNodes())
		got, err := e.Distance(u, v)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v))
		if got != want {
			t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
}

func TestDistanceRandomGraphsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 15 + rng.Intn(50)
		g := randomGraph(rng, n, 2*n, 1+rng.Intn(2))
		res, err := core.Compress(g, 2, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(res.Grammar)
		if err != nil {
			t.Fatal(err)
		}
		derived := mustDerive(t, res.Grammar)
		for q := 0; q < 150; q++ {
			u := 1 + rng.Int63n(e.NumNodes())
			v := 1 + rng.Int63n(e.NumNodes())
			got, err := e.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v))
			if got != want {
				t.Fatalf("trial %d: Distance(%d,%d) = %d, want %d", trial, u, v, got, want)
			}
		}
	}
}

func TestDistanceConsistentWithReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 70, 1)
	res, err := core.Compress(g, 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		u := 1 + rng.Int63n(e.NumNodes())
		v := 1 + rng.Int63n(e.NumNodes())
		d, err := e.Distance(u, v)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Reachable(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if (d != Unreachable) != r {
			t.Fatalf("Distance(%d,%d)=%d disagrees with Reachable=%v", u, v, d, r)
		}
	}
}

func TestLabelHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 50, 200, 3)
	res, err := core.Compress(g, 3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	got := e.LabelHistogram()
	want := map[hypergraph.Label]int64{}
	for _, id := range g.Edges() {
		want[g.Label(id)]++
	}
	if len(got) != len(want) {
		t.Fatalf("histogram labels %d vs %d", len(got), len(want))
	}
	for l, c := range want {
		if got[l] != c {
			t.Fatalf("label %d: %d vs %d", l, got[l], c)
		}
	}
}

// TestDistanceSaturates pins the min-plus arithmetic at the top of its
// range: a 2^61-long path is exact, and a 2^62-long one stays finite
// (Reachable) while Distance reports it as a limit, never as
// Unreachable and never as a wrapped negative length.
func TestDistanceSaturates(t *testing.T) {
	e, err := New(doublingGrammar(61))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := e.Distance(1, 2); err != nil || d != int64(1)<<61 {
		t.Fatalf("61 doubling rules: Distance(1,2) = %d, %v; want 2^61", d, err)
	}
	e, err = New(doublingGrammar(62))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Reachable(1, 2); err != nil || !ok {
		t.Fatalf("62 doubling rules: Reachable(1,2) = %v, %v; want true", ok, err)
	}
	if d, err := e.Distance(1, 2); !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("62 doubling rules: Distance(1,2) = %d, %v; want an ErrLimit error", d, err)
	}
	if d, err := e.Distance(2, 1); err != nil || d != Unreachable {
		t.Fatalf("62 doubling rules: Distance(2,1) = %d, %v; want Unreachable", d, err)
	}
}
