package query

import (
	"fmt"
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/gen"
	"graphrepair/internal/grammar"
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
				checkCondensation(t, e)
				pairs := differentialPairs(t, e, derived, int64(len(name)))
				checkPairs(t, e, derived, pairs)
				checkMatches(t, e, derived, d.Labels, pairs)
				checkNeighbors(t, e, derived, pairs)
			})
		}
	}
}

// reenterGrammar derives a graph whose nodes 3 and 4 connect only by
// leaving the expansion of the one nonterminal edge and re-entering
// it: rule A (rank 2, ext 1, 2) has edges 3→1 and 2→4, and the start
// graph has the terminal edge 1→2 and A(1, 2).
func reenterGrammar() *grammar.Grammar {
	start := hypergraph.New(2)
	g := grammar.New(1, start)
	a := hypergraph.New(4)
	a.AddEdge(1, 3, 1)
	a.AddEdge(1, 2, 4)
	a.SetExt(1, 2)
	start.AddEdge(1, 1, 2)
	start.AddEdge(g.AddRule(a), 1, 2)
	return g
}

// chainedSCCGrammar derives a graph whose S′ has three two-node SCCs
// joined one way, {1,2} → {3,4} → {5,6}: B(1, 2) and B(3, 4) are
// cycles through both external nodes (a skeleton that runs both
// ways), C(2, 3) is a one-way path, 4→5 is a terminal edge and 5⇄6 a
// terminal cycle. Every nonterminal edge has an internal node.
func chainedSCCGrammar() *grammar.Grammar {
	start := hypergraph.New(6)
	g := grammar.New(1, start)
	b := hypergraph.New(3)
	b.AddEdge(1, 1, 3)
	b.AddEdge(1, 3, 2)
	b.AddEdge(1, 2, 1)
	b.SetExt(1, 2)
	c := hypergraph.New(3)
	c.AddEdge(1, 1, 3)
	c.AddEdge(1, 3, 2)
	c.SetExt(1, 2)
	lb, lc := g.AddRule(b), g.AddRule(c)
	start.AddEdge(lb, 1, 2)
	start.AddEdge(lb, 3, 4)
	start.AddEdge(lc, 2, 3)
	start.AddEdge(1, 4, 5)
	start.AddEdge(1, 5, 6)
	start.AddEdge(1, 6, 5)
	return g
}

// reenterShorterGrammar derives a graph in which the shortest path
// from node 3 to node 4 leaves the expansion of the one nonterminal
// edge and re-enters it: rule A (rank 2, ext 1, 2) has edges 3→1 and
// 2→4 and the inside path 3→5→6→7→4, and the start graph has the
// terminal edge 1→2 and A(1, 2), so 3→1→2→4 (length 3) beats the
// inside path (length 4).
func reenterShorterGrammar() *grammar.Grammar {
	start := hypergraph.New(2)
	g := grammar.New(1, start)
	a := hypergraph.New(7)
	a.AddEdge(1, 3, 1)
	a.AddEdge(1, 2, 4)
	a.AddEdge(1, 3, 5)
	a.AddEdge(1, 5, 6)
	a.AddEdge(1, 6, 7)
	a.AddEdge(1, 7, 4)
	a.SetExt(1, 2)
	start.AddEdge(1, 1, 2)
	start.AddEdge(g.AddRule(a), 1, 2)
	return g
}

// parallelArcsGrammar derives a graph whose start nodes 1 and 2 are
// joined both by a terminal edge and by a nonterminal edge, with
// different lengths each way: rule A (rank 2, ext 1, 2) has the path
// 1→3→4→2 (length 3) and the edge 2→1 (length 1), and the start graph
// has A(1, 2), then 1→2 and 2→3. So 1→2 has length 1 through the
// terminal edge, and 2→1 length 1 only through row 2 of A's skeleton.
func parallelArcsGrammar() *grammar.Grammar {
	start := hypergraph.New(3)
	g := grammar.New(1, start)
	a := hypergraph.New(4)
	a.AddEdge(1, 1, 3)
	a.AddEdge(1, 3, 4)
	a.AddEdge(1, 4, 2)
	a.AddEdge(1, 2, 1)
	a.SetExt(1, 2)
	start.AddEdge(g.AddRule(a), 1, 2)
	start.AddEdge(1, 1, 2)
	start.AddEdge(1, 2, 3)
	return g
}

// splitKGrammar derives a graph in which K(v), the attachment of the
// top-level edge v derives from, spans two SCCs of S′: rule B (rank 2,
// ext 1, 2) has the one edge 1→3, the start graph has B(1, 2), the
// terminal cycle 1⇄3 and 2→1, so {1, 3} is the lowest SCC and {2} lies
// above it. Derived node 4 is B's internal node; every path to it
// enters through start node 1.
func splitKGrammar() *grammar.Grammar {
	start := hypergraph.New(3)
	g := grammar.New(1, start)
	b := hypergraph.New(3)
	b.AddEdge(1, 1, 3)
	b.SetExt(1, 2)
	start.AddEdge(g.AddRule(b), 1, 2)
	start.AddEdge(1, 1, 3)
	start.AddEdge(1, 3, 1)
	start.AddEdge(1, 2, 1)
	return g
}

// checkAllPairs runs the pair and RPQ differentials on every ordered
// pair of g's derived nodes.
func checkAllPairs(t *testing.T, g *grammar.Grammar) *Engine {
	t.Helper()
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	derived := mustDerive(t, g)
	pairs := allPairs(e.NumNodes())
	checkPairs(t, e, derived, pairs)
	checkMatches(t, e, derived, g.Terminals, pairs)
	checkCondensation(t, e)
	return e
}

// TestWalkReenter pins the in-place walk of S′ on a shortest path that
// leaves u's top-level edge through the start graph and re-enters it:
// the layout of the shared block holds a longer path, so a Distance
// that skipped S′ for two nodes of one top-level edge answers (3, 4)
// with 4.
func TestWalkReenter(t *testing.T) {
	e := checkAllPairs(t, reenterShorterGrammar())
	if d, err := e.Distance(3, 4); err != nil || d != 3 {
		t.Fatalf("Distance(3, 4) = %d, %v; want 3", d, err)
	}
}

// TestWalkParallelArcs pins the walk on two start nodes joined by a
// terminal and a nonterminal edge of different lengths: every incident
// edge must be read, each at the attachment position of the node the
// search settles (2→1 is only on the second row of A's skeleton).
func TestWalkParallelArcs(t *testing.T) {
	e := checkAllPairs(t, parallelArcsGrammar())
	for _, c := range [][3]int64{{1, 2, 1}, {2, 1, 1}, {1, 3, 2}} {
		if d, err := e.Distance(c[0], c[1]); err != nil || d != c[2] {
			t.Fatalf("Distance(%d, %d) = %d, %v; want %d", c[0], c[1], d, err, c[2])
		}
	}
}

// TestWalkSplitK pins Distance's condensation bound on a K(v) that
// spans two SCCs: the search must still expand start nodes of the
// lower one, so a bound of scc ≤ lo in place of scc < lo answers
// (3, 4) as unreachable.
func TestWalkSplitK(t *testing.T) {
	e := checkAllPairs(t, splitKGrammar())
	if e.scc[1] == e.scc[2] || e.scc[1] != e.scc[3] {
		t.Fatalf("SCCs of start nodes 1, 2, 3 are %d, %d, %d; want {1, 3} and {2}", e.scc[1], e.scc[2], e.scc[3])
	}
	if d, err := e.Distance(3, 4); err != nil || d != 2 {
		t.Fatalf("Distance(3, 4) = %d, %v; want 2", d, err)
	}
}

// allPairs returns every ordered pair of derived nodes 1..n.
func allPairs(n int64) [][2]int64 {
	var pairs [][2]int64
	for u := int64(1); u <= n; u++ {
		for v := int64(1); v <= n; v++ {
			pairs = append(pairs, [2]int64{u, v})
		}
	}
	return pairs
}

// TestClosureReenter pins Reachable on a path that leaves a top-level
// edge and re-enters it: derived nodes 3 and 4 of A(1, 2) are
// connected only through the start edge 1→2, outside A's expansion,
// so a search that skips S′ when both nodes derive from one top-level
// edge answers (3, 4) wrongly.
func TestClosureReenter(t *testing.T) {
	g := reenterGrammar()
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, e, mustDerive(t, g), allPairs(e.NumNodes()))
	if ok, err := e.Reachable(3, 4); err != nil || !ok {
		t.Fatalf("Reachable(3, 4) = %v, %v; want true", ok, err)
	}
	checkCondensation(t, e)
}

// TestClosureChainedSCCs pins Reachable on an S′ whose condensation
// has arcs between multi-node SCCs, merged both by the union-find
// (B's two-way skeleton) and by Tarjan (the terminal cycle 5⇄6).
func TestClosureChainedSCCs(t *testing.T) {
	g := chainedSCCGrammar()
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, e, mustDerive(t, g), allPairs(e.NumNodes()))
	checkCondensation(t, e)
	size := map[int32]int{}
	for x := 1; x <= 6; x++ {
		size[e.scc[x]]++
	}
	if len(size) != 3 || len(e.sccTo) != 2 {
		t.Fatalf("condensation has SCC sizes %v and %d arcs, want three SCCs of 2 and 2 arcs", size, len(e.sccTo))
	}
	for _, p := range [][2]int{{1, 2}, {3, 4}, {5, 6}} {
		if e.scc[p[0]] != e.scc[p[1]] {
			t.Fatalf("start nodes %d and %d are in SCCs %d and %d, want one", p[0], p[1], e.scc[p[0]], e.scc[p[1]])
		}
	}
}

// checkCondensation checks the invariant Reachable's pruned DFS rests
// on: every condensed arc of S′ runs from a higher SCC index to a
// lower one, and each start node has an SCC.
func checkCondensation(t *testing.T, e *Engine) {
	t.Helper()
	nc := int32(len(e.sccOff) - 1)
	for x := int64(1); x <= e.m; x++ {
		if c := e.scc[x]; c < 0 || c >= nc {
			t.Fatalf("start node %d has SCC %d of %d", x, c, nc)
		}
	}
	for c := range nc {
		for _, d := range e.sccTo[e.sccOff[c]:e.sccOff[c+1]] {
			if d >= c {
				t.Fatalf("condensed arc %d→%d does not run to a lower index", c, d)
			}
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
		for id := range s.IncidentSeqRO(x) {
			att := s.Att(id)
			if e.g.IsTerminal(s.Label(id)) && att[0] == x && !seen[att[1]] {
				seen[att[1]] = true
				queue = append(queue, att[1])
			}
		}
	}
	return seen
}

// checkPairs checks that the pairs leave a held scratch clear
// (checkScratchClean) and compares Reachable and Distance on each pair
// with BFS on the derived graph.
func checkPairs(t *testing.T, e *Engine, derived *hypergraph.Graph, pairs [][2]int64) {
	t.Helper()
	checkScratchClean(t, e, pairs)
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

// checkScratchClean runs reach and pathDist on each pair u ≠ v through
// one held scratch and checks that every call leaves its product
// clear: each head slot up to capacity is -1 and each dist slot
// maxDist, in both directions. The next layout and search undo only
// the entries they record, so a slot left set would corrupt a later
// query on the same scratch.
func checkScratchClean(t *testing.T, e *Engine, pairs [][2]int64) {
	t.Helper()
	s := e.getScratch()
	defer e.putScratch(s)
	var tk ticker
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		if _, err := e.reach(s, &tk, "test", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
		checkClear(t, &s.pg, "reach", p)
		if _, err := e.pathDist(s, &tk, "test", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
		checkClear(t, &s.pg, "pathDist", p)
	}
}

func checkClear(t *testing.T, g *product, call string, p [2]int64) {
	t.Helper()
	for i, s := range [2]*search{&g.fwd, &g.bwd} {
		dir := [2]string{"forward", "backward"}[i]
		for x, h := range s.head[:cap(s.head)] {
			if h != -1 {
				t.Fatalf("after %s(%d,%d): %s head[%d] = %d, want -1", call, p[0], p[1], dir, x, h)
			}
		}
		for x, d := range s.dist[:cap(s.dist)] {
			if d != maxDist {
				t.Fatalf("after %s(%d,%d): %s dist[%d] = %d, want maxDist", call, p[0], p[1], dir, x, d)
			}
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
	for id := range derived.EdgesSeq() {
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
