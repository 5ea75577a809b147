package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphrepair/internal/hypergraph"
)

// paperFigure8Graph builds the 5-node graph of Fig. 8 (undirected in
// the paper; we model each undirected edge as a single directed edge,
// which leaves the degree structure intact).
//
//	1 - 3, 2 - 3, 3 - 4, 4 - 5
func paperFigure8Graph() *hypergraph.Graph {
	g := hypergraph.New(5)
	g.AddEdge(1, 1, 3)
	g.AddEdge(1, 2, 3)
	g.AddEdge(1, 3, 4)
	g.AddEdge(1, 4, 5)
	return g
}

func TestFPPaperFigure8(t *testing.T) {
	// Fig. 8: degrees are (1,1,3,2,1); after one refinement the three
	// degree-1 nodes split into {1,2} (neighbor has color 3) and {5}
	// (neighbor has color 2), giving 4 classes, which is the fixpoint.
	g := paperFigure8Graph()
	r := Compute(g, FP, 0)
	if r.Classes != 4 {
		t.Fatalf("FP classes = %d, want 4", r.Classes)
	}
	r0 := Compute(g, FP0, 0)
	if r0.Classes != 3 {
		t.Fatalf("FP0 classes = %d, want 3 (degrees 1,2,3)", r0.Classes)
	}
}

func TestFPSymmetricNodesShareClass(t *testing.T) {
	// Directed 6-cycle: all nodes are isomorphic, so one FP class.
	g := hypergraph.New(6)
	for i := 1; i <= 6; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i%6+1))
	}
	if c := FPClasses(g); c != 1 {
		t.Fatalf("cycle FP classes = %d, want 1", c)
	}
}

func TestFPDistinguishesLabels(t *testing.T) {
	// Two stars with 3 leaves each, differing only in edge labels:
	// label distinction must separate the hubs and the leaves.
	g := hypergraph.New(8)
	for i := 2; i <= 4; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), 1)
	}
	for i := 6; i <= 8; i++ {
		g.AddEdge(2, hypergraph.NodeID(i), 5)
	}
	if c := FPClasses(g); c != 4 {
		t.Fatalf("FP classes = %d, want 4 (2 hubs + 2 leaf groups)", c)
	}
	// Same labels → the two stars are isomorphic → 2 classes.
	g2 := hypergraph.New(8)
	for i := 2; i <= 4; i++ {
		g2.AddEdge(1, hypergraph.NodeID(i), 1)
	}
	for i := 6; i <= 8; i++ {
		g2.AddEdge(1, hypergraph.NodeID(i), 5)
	}
	if c := FPClasses(g2); c != 2 {
		t.Fatalf("FP classes = %d, want 2", c)
	}
}

func TestFPDistinguishesDirection(t *testing.T) {
	// Path a→b←c: a and c both have degree 1 and point at b, so they
	// share a class; flipping one edge must separate them.
	g := hypergraph.New(3)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 3, 2)
	if c := FPClasses(g); c != 2 {
		t.Fatalf("classes = %d, want 2", c)
	}
	g2 := hypergraph.New(3)
	g2.AddEdge(1, 1, 2)
	g2.AddEdge(1, 2, 3)
	if c := FPClasses(g2); c != 3 {
		t.Fatalf("classes = %d, want 3", c)
	}
}

func TestBFSOrder(t *testing.T) {
	// 1→2, 1→3, 3→4, plus isolated 5: BFS from 1 then 5.
	g := hypergraph.New(5)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 1, 3)
	g.AddEdge(1, 3, 4)
	r := Compute(g, BFS, 0)
	want := []hypergraph.NodeID{1, 2, 3, 4, 5}
	for i, v := range want {
		if r.Seq[i] != v {
			t.Fatalf("BFS seq = %v, want %v", r.Seq, want)
		}
	}
}

func TestDFSOrder(t *testing.T) {
	g := hypergraph.New(5)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 1, 3)
	g.AddEdge(1, 2, 4)
	r := Compute(g, DFS, 0)
	// DFS from 1 visits 2 (smallest neighbor) before 3, and 4 under 2.
	want := []hypergraph.NodeID{1, 2, 4, 3, 5}
	for i, v := range want {
		if r.Seq[i] != v {
			t.Fatalf("DFS seq = %v, want %v", r.Seq, want)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	g := paperFigure8Graph()
	a := Compute(g, Random, 42)
	b := Compute(g, Random, 42)
	c := Compute(g, Random, 43)
	same := true
	diff := false
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			same = false
		}
		if a.Seq[i] != c.Seq[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different orders")
	}
	if !diff {
		t.Fatal("different seeds produced identical orders (unlikely)")
	}
}

// Property: every order is a permutation of the alive nodes, and Pos
// is its inverse.
func TestOrderIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := hypergraph.New(n)
		for i := 0; i < 2*n; i++ {
			u := hypergraph.NodeID(1 + rng.Intn(n))
			v := hypergraph.NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(hypergraph.Label(1+rng.Intn(2)), u, v)
			}
		}
		for _, k := range Kinds {
			r := Compute(g, k, seed)
			if len(r.Seq) != g.NumNodes() {
				return false
			}
			seen := map[hypergraph.NodeID]bool{}
			for i, v := range r.Seq {
				if seen[v] || r.Pos[v] != int32(i) {
					return false
				}
				seen[v] = true
			}
			if r.Classes < 1 || r.Classes > g.NumNodes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFPClassesNeverExceedAndRefineFP0(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := hypergraph.New(n)
		for i := 0; i < 3*n; i++ {
			u := hypergraph.NodeID(1 + rng.Intn(n))
			v := hypergraph.NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(1, u, v)
			}
		}
		fp0 := Compute(g, FP0, 0).Classes
		fp := Compute(g, FP, 0).Classes
		// FP refines FP0: class count can only grow.
		return fp >= fp0 && fp <= g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedOrdersArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := hypergraph.New(30)
	for i := 0; i < 80; i++ {
		u := hypergraph.NodeID(1 + rng.Intn(30))
		v := hypergraph.NodeID(1 + rng.Intn(30))
		if u != v {
			g.AddEdge(hypergraph.Label(1+rng.Intn(2)), u, v)
		}
	}
	for _, k := range ExtendedKinds {
		r := Compute(g, k, 1)
		if len(r.Seq) != g.NumNodes() {
			t.Fatalf("%s: wrong length", k)
		}
		seen := map[hypergraph.NodeID]bool{}
		for i, v := range r.Seq {
			if seen[v] || r.Pos[v] != int32(i) {
				t.Fatalf("%s: not a permutation", k)
			}
			seen[v] = true
		}
	}
}

func TestDegreeDescHubFirst(t *testing.T) {
	g := hypergraph.New(5)
	g.AddEdge(1, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(1, 3, 5)
	g.AddEdge(1, 4, 5)
	r := Compute(g, DegreeDesc, 0)
	if r.Seq[0] != 5 {
		t.Fatalf("hub not first: %v", r.Seq)
	}
}

func TestShingleGroupsSimilarNeighborhoods(t *testing.T) {
	// Two groups of nodes pointing at two different hubs: the shingle
	// order must not interleave them.
	g := hypergraph.New(22)
	for i := 1; i <= 10; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), 21)
	}
	for i := 11; i <= 20; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), 22)
	}
	r := Compute(g, Shingle, 0)
	// Find positions of leaf groups; each group must be contiguous.
	group := func(v hypergraph.NodeID) int {
		if v <= 10 {
			return 0
		}
		if v <= 20 {
			return 1
		}
		return 2
	}
	switches := 0
	prev := -1
	for _, v := range r.Seq {
		if g := group(v); g != 2 {
			if g != prev {
				switches++
				prev = g
			}
		}
	}
	if switches > 2 {
		t.Fatalf("leaf groups interleaved (%d switches): %v", switches, r.Seq)
	}
}

// TestRefinerResetMatchesFresh replays a sharded compression's pool
// compressor, which keeps one Refiner across unrelated shard graphs:
// warmed on one graph, then Reset and used on a smaller and then a
// larger unrelated graph, the Refiner returns the same Seq, Pos and
// Classes as a fresh one, for every Kind. The smaller graph's node IDs
// all occur in the warm order, so without the reset its refinement
// would be seeded from another graph's order.
func TestRefinerResetMatchesFresh(t *testing.T) {
	randomGraph := func(seed int64, n, m int) *hypergraph.Graph {
		rng := rand.New(rand.NewSource(seed))
		g := hypergraph.New(n)
		for i := 0; i < m; i++ {
			u := hypergraph.NodeID(1 + rng.Intn(n))
			v := hypergraph.NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(hypergraph.Label(1+rng.Intn(3)), u, v)
			}
		}
		return g
	}
	warmG := randomGraph(1, 200, 600)
	smaller := randomGraph(2, 40, 90)
	larger := randomGraph(3, 400, 1000)
	for _, k := range ExtendedKinds {
		r := NewRefiner()
		r.Compute(warmG, k, 5)
		for _, h := range []struct {
			name string
			g    *hypergraph.Graph
		}{{"smaller", smaller}, {"larger", larger}} {
			r.Reset()
			got := r.Compute(h.g, k, 5)
			checkPermutation(t, h.g, k, got)
			sameOrder(t, k, "reset on "+h.name+" graph", NewRefiner().Compute(h.g, k, 5), got)
		}
	}
}
