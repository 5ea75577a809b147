package query

import (
	"fmt"
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
)

// TestQueryDifferentialCatalog pins the compiled engine against plain
// graph algorithms on the derived graph, over every generator catalog
// dataset compressed sequentially and on the sharded path: Reachable,
// Distance, RPQ Matches (a path and a star automaton over the
// dataset's terminal labels, against a product BFS) and Neighbors in
// every Direction (against the derived adjacency). Node pairs
// are biased toward the cases the grammar-side algorithms treat
// specially: pairs inside one derivation subtree, pairs of start-graph
// nodes, and pairs whose only connecting paths run through derived
// (skeleton) edges.
func TestQueryDifferentialCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("query differential catalog sweep compresses every model twice; skipped in -short")
	}
	for _, name := range gen.Names("") {
		d, err := gen.Generate(name, 2048)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				opts := core.DefaultOptions()
				opts.Workers = workers
				res, err := core.Compress(d.Graph, d.Labels, opts)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(res.Grammar)
				if err != nil {
					t.Fatal(err)
				}
				derived := mustDerive(t, res.Grammar)
				checkAggregates(t, e, derived)
				pairs := differentialPairs(t, e, derived, int64(len(name)))
				checkPairs(t, e, derived, pairs)
				checkMatches(t, e, derived, d.Labels, pairs)
				checkNeighbors(t, e, derived, pairs)
			})
		}
	}
}

// differentialPairs samples node pairs for the differential: uniform
// pairs, same-subtree pairs, start-graph pairs, and start-graph pairs
// connected in val(G) but not by the start graph's own terminal edges.
func differentialPairs(t *testing.T, e *Engine, derived *hypergraph.Graph, seed int64) [][2]int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := e.NumNodes()
	// top[k] is the top-level nonterminal edge whose derived block
	// holds node k, or -1 for a start-graph node.
	top := make([]int64, n+1)
	var start []int64
	for k := int64(1); k <= n; k++ {
		loc, err := e.Locate(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(loc.Path) == 0 {
			top[k] = -1
			start = append(start, k)
		} else {
			top[k] = int64(loc.Path[0])
		}
	}
	var pairs [][2]int64
	for q := 0; q < 100; q++ {
		pairs = append(pairs, [2]int64{1 + rng.Int63n(n), 1 + rng.Int63n(n)})
	}
	// Same subtree: derived blocks are contiguous, so a nearby ID in
	// the same top-level block shares at least the first path step.
	for q, tries := 0, 0; q < 100 && tries < 2000; tries++ {
		u := 1 + rng.Int63n(n)
		v := u + rng.Int63n(17) - 8
		if v < 1 || v > n || top[u] < 0 || top[u] != top[v] {
			continue
		}
		pairs = append(pairs, [2]int64{u, v})
		q++
	}
	if len(start) == 0 {
		return pairs
	}
	for q := 0; q < 50; q++ {
		pairs = append(pairs, [2]int64{start[rng.Intn(len(start))], start[rng.Intn(len(start))]})
	}
	// Skeleton-only: start nodes reachable in val(G) but not along the
	// start graph's terminal edges alone.
	s := e.g.Start
	for q := 0; q < 10; q++ {
		u := start[rng.Intn(len(start))]
		viaTerminals := terminalReach(e, s, hypergraph.NodeID(u))
		var rs hypergraph.ReachScratch
		for _, v := range start {
			if !viaTerminals[hypergraph.NodeID(v)] && derived.ReachableWith(&rs, hypergraph.NodeID(u), hypergraph.NodeID(v)) {
				pairs = append(pairs, [2]int64{u, v})
			}
		}
	}
	return pairs
}

// terminalReach is the set of start-graph nodes reachable from src
// along terminal edges of the start graph only.
func terminalReach(e *Engine, s *hypergraph.Graph, src hypergraph.NodeID) map[hypergraph.NodeID]bool {
	seen := map[hypergraph.NodeID]bool{src: true}
	queue := []hypergraph.NodeID{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, id := range s.Incident(x) {
			att := s.Att(id)
			if e.g.IsTerminal(s.Label(id)) && att[0] == x && !seen[att[1]] {
				seen[att[1]] = true
				queue = append(queue, att[1])
			}
		}
	}
	return seen
}

// checkPairs compares Reachable and Distance on each pair with BFS on
// the derived graph.
func checkPairs(t *testing.T, e *Engine, derived *hypergraph.Graph, pairs [][2]int64) {
	t.Helper()
	var rs hypergraph.ReachScratch
	for _, p := range pairs {
		u, v := p[0], p[1]
		got, err := e.Reachable(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := derived.ReachableWith(&rs, hypergraph.NodeID(u), hypergraph.NodeID(v)); got != want {
			t.Fatalf("Reachable(%d,%d) = %v, want %v", u, v, got, want)
		}
		d, err := e.Distance(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v)); d != want {
			t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, d, want)
		}
	}
}

// checkMatches compares RPQ Matches under a fixed-length path
// automaton and a star automaton over labels 1..labels with a product
// BFS on the derived graph.
func checkMatches(t *testing.T, e *Engine, derived *hypergraph.Graph, labels hypergraph.Label, pairs [][2]int64) {
	t.Helper()
	all := make([]hypergraph.Label, labels)
	for i := range all {
		all[i] = hypergraph.Label(i + 1)
	}
	path := make([]hypergraph.Label, 3)
	for i := range path {
		path[i] = all[i%len(all)]
	}
	for _, nfa := range []*NFA{PathNFA(path...), StarNFA(all...)} {
		rpq := e.NewRPQ(nfa)
		for _, p := range pairs {
			u, v := p[0], p[1]
			got, err := rpq.Matches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteMatches(derived, nfa, hypergraph.NodeID(u), hypergraph.NodeID(v)); got != want {
				t.Fatalf("Matches(%d,%d) with %d-state NFA = %v, want %v", u, v, nfa.States, got, want)
			}
		}
	}
}

// checkNeighbors compares Neighbors in every Direction with the
// derived adjacency of both endpoints of each pair.
func checkNeighbors(t *testing.T, e *Engine, derived *hypergraph.Graph, pairs [][2]int64) {
	t.Helper()
	for _, p := range pairs {
		for _, k := range p {
			v := hypergraph.NodeID(k)
			for _, dir := range []Direction{Out, In, Both} {
				got, err := e.Neighbors(k, dir)
				if err != nil {
					t.Fatal(err)
				}
				var want []int64
				switch dir {
				case Out:
					want = toIDs(derived.OutNeighbors(v))
				case In:
					want = toIDs(derived.InNeighbors(v))
				case Both:
					want = toIDs(derived.Neighbors(v))
				}
				if !equalIDs(got, want) {
					t.Fatalf("Neighbors(%d, %d) = %v, want %v", k, dir, got, want)
				}
			}
		}
	}
}

// checkAggregates compares the bottom-up aggregates with direct counts
// on the derived graph.
func checkAggregates(t *testing.T, e *Engine, derived *hypergraph.Graph) {
	t.Helper()
	if got, want := e.ComponentCount(), int64(len(derived.WeakComponents())); got != want {
		t.Fatalf("ComponentCount = %d, want %d", got, want)
	}
	var deg [3]map[hypergraph.NodeID]int64
	for dir := range deg {
		deg[dir] = map[hypergraph.NodeID]int64{}
	}
	hist := map[hypergraph.Label]int64{}
	for _, id := range derived.Edges() {
		att := derived.Att(id)
		deg[Out][att[0]]++
		deg[In][att[1]]++
		deg[Both][att[0]]++
		deg[Both][att[1]]++
		hist[derived.Label(id)]++
	}
	for _, dir := range []Direction{Out, In, Both} {
		wmin, wmax := int64(-1), int64(-1)
		for _, v := range derived.Nodes() {
			d := deg[dir][v]
			if wmin < 0 || d < wmin {
				wmin = d
			}
			if d > wmax {
				wmax = d
			}
		}
		gmin, gmax, err := e.DegreeStats(dir)
		if err != nil {
			t.Fatal(err)
		}
		if gmin != wmin || gmax != wmax {
			t.Fatalf("DegreeStats(%d) = (%d,%d), want (%d,%d)", dir, gmin, gmax, wmin, wmax)
		}
	}
	got := e.LabelHistogram()
	if len(got) != len(hist) {
		t.Fatalf("LabelHistogram has %d labels, want %d", len(got), len(hist))
	}
	for l, c := range hist {
		if got[l] != c {
			t.Fatalf("LabelHistogram[%d] = %d, want %d", l, got[l], c)
		}
	}
}
