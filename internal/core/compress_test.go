package core

import (
	"math/rand"
	"strings"
	"testing"

	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
	"graphrepair/internal/order"
)

// compressAndCheck compresses g and asserts val(grammar) ≅ g,
// returning the result for further inspection.
func compressAndCheck(t *testing.T, g *hypergraph.Graph, terminals hypergraph.Label, opts Options) *Result {
	t.Helper()
	res, err := Compress(g, terminals, opts)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := res.Grammar.Derive(int64(g.NumNodes()) + 10)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	if derived.NumNodes() != g.NumNodes() || derived.NumEdges() != g.NumEdges() {
		t.Fatalf("derived sizes (%d,%d) != input (%d,%d)",
			derived.NumNodes(), derived.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if g.NumNodes() <= 400 {
		if !iso.Isomorphic(g, derived) {
			t.Fatal("derived graph not isomorphic to input")
		}
	} else {
		// Cheap invariants for larger graphs.
		la, lb := g.Labels(), derived.Labels()
		if len(la) != len(lb) {
			t.Fatal("label sets differ")
		}
	}
	return res
}

// chainGraph is the Fig. 1b graph: a path alternating a- and b-edges,
// n times (a b a b ...).
func chainGraph(n int) *hypergraph.Graph {
	g := hypergraph.New(2*n + 1)
	for i := 0; i < n; i++ {
		g.AddEdge(1, hypergraph.NodeID(2*i+1), hypergraph.NodeID(2*i+2))
		g.AddEdge(2, hypergraph.NodeID(2*i+2), hypergraph.NodeID(2*i+3))
	}
	return g
}

func TestFigure1Chain(t *testing.T) {
	// Fig. 1's alternating a/b chain. At n = 3 the repeated digram has
	// only two interior occurrences (the chain ends make the boundary
	// pairs distinct digram classes), whose rule has con(A) = −1 and
	// is correctly pruned; correctness must still hold.
	g := chainGraph(3)
	compressAndCheck(t, g, 2, Options{MaxRank: 4, Order: order.Natural, ConnectComponents: true})
	// At n = 6 the interior digram repeats enough to contribute.
	g6 := chainGraph(6)
	res := compressAndCheck(t, g6, 2, Options{MaxRank: 4, Order: order.Natural, ConnectComponents: true})
	if res.Grammar.NumRules() < 1 {
		t.Fatal("expected at least one rule for the repeated digram")
	}
}

func TestLongChainCompresses(t *testing.T) {
	// 256 repetitions: grammar should be drastically smaller than the
	// graph (chain doubling gives roughly logarithmic rules).
	g := chainGraph(256)
	res := compressAndCheck(t, g, 2, DefaultOptions())
	if res.Grammar.Size() >= g.TotalSize()/4 {
		t.Fatalf("grammar size %d not ≪ graph size %d", res.Grammar.Size(), g.TotalSize())
	}
}

func TestFigure1cIncompressible(t *testing.T) {
	// Fig. 1c: the three a/b wedges hang off a shared center that also
	// has two c-edges; the center stays external, hyperedges are more
	// expensive, and the paper notes no compression is achieved. We
	// only require correctness here.
	g := hypergraph.New(9)
	center := hypergraph.NodeID(1)
	for i := 0; i < 3; i++ {
		src := hypergraph.NodeID(2 + 2*i)
		dst := hypergraph.NodeID(3 + 2*i)
		g.AddEdge(1, src, center)
		g.AddEdge(2, center, dst)
	}
	g.AddEdge(3, center, 8)
	g.AddEdge(3, center, 9)
	compressAndCheck(t, g, 3, DefaultOptions())
}

func TestStarExponentialCompression(t *testing.T) {
	// A star of n identical leaf→hub edges collapses like the paper's
	// DBpedia types graphs: grammar size should be O(log n)-ish.
	n := 1024
	g := hypergraph.New(n + 1)
	hub := hypergraph.NodeID(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hub)
	}
	res := compressAndCheck(t, g, 1, DefaultOptions())
	if res.Grammar.Size() > 200 {
		t.Fatalf("star grammar size %d, expected ≪ %d", res.Grammar.Size(), g.TotalSize())
	}
}

func TestDisjointCopiesVirtualEdges(t *testing.T) {
	// Fig. 13 setup: disjoint copies of a 4-node directed circle with
	// one diagonal. The virtual-edge stage must enable compression
	// across components.
	copies := 64
	g := hypergraph.New(4 * copies)
	for c := 0; c < copies; c++ {
		b := hypergraph.NodeID(4 * c)
		g.AddEdge(1, b+1, b+2)
		g.AddEdge(1, b+2, b+3)
		g.AddEdge(1, b+3, b+4)
		g.AddEdge(1, b+4, b+1)
		g.AddEdge(1, b+1, b+3)
	}
	with := compressAndCheck(t, g, 1, DefaultOptions())
	if with.Stats.VirtualEdges != copies-1 {
		t.Fatalf("virtual edges = %d, want %d", with.Stats.VirtualEdges, copies-1)
	}
	noVirt := Options{MaxRank: 4, Order: order.FP}
	without, err := Compress(g, 1, noVirt)
	if err != nil {
		t.Fatal(err)
	}
	if with.Grammar.Size() >= without.Grammar.Size() {
		t.Fatalf("virtual edges did not help: %d vs %d",
			with.Grammar.Size(), without.Grammar.Size())
	}
	// No virtual edge may survive anywhere in the grammar.
	check := func(h *hypergraph.Graph) {
		for id := range h.EdgesSeq() {
			if h.Label(id) == virtualLabel {
				t.Fatal("virtual edge leaked into grammar")
			}
		}
	}
	check(with.Grammar.Start)
	for _, l := range with.Grammar.Nonterminals() {
		check(with.Grammar.Rule(l))
	}
}

func TestMaxRankRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomSimpleGraph(rng, 60, 180, 2)
	for _, mr := range []int{2, 3, 4, 6} {
		res, err := Compress(g, 2, Options{MaxRank: mr, Order: order.FP, ConnectComponents: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range res.Grammar.Nonterminals() {
			if r := res.Grammar.RankOf(l); r > mr {
				t.Fatalf("maxRank=%d violated: nonterminal rank %d", mr, r)
			}
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	// No edges at all.
	g := hypergraph.New(5)
	res, err := Compress(g, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := mustDerive(t, res.Grammar)
	if d.NumNodes() != 5 || d.NumEdges() != 0 {
		t.Fatal("empty graph mangled")
	}
	// One edge.
	g2 := hypergraph.New(2)
	g2.AddEdge(1, 1, 2)
	compressAndCheck(t, g2, 1, DefaultOptions())
}

func TestRejectsBadInput(t *testing.T) {
	g := hypergraph.New(3)
	g.AddEdge(5, 1, 2) // label out of range
	if _, err := Compress(g, 2, DefaultOptions()); err == nil {
		t.Fatal("expected label range error")
	}
	h := hypergraph.New(3)
	h.AddEdge(1, 1, 2, 3) // hyperedge input
	if _, err := Compress(h, 2, DefaultOptions()); err == nil {
		t.Fatal("expected rank error")
	}
	if _, err := Compress(hypergraph.New(1), 1, Options{MaxRank: 0}); err == nil {
		t.Fatal("expected MaxRank error")
	}
	if _, err := Compress(hypergraph.New(1), 1, Options{MaxRank: MaxSupportedRank + 1}); err == nil {
		t.Fatal("expected MaxRank upper-bound error")
	}
}

// TestBadInputErrorContext asserts validation errors carry the label
// and attachment of the offending edge, not just an internal edge ID
// the caller has no way to resolve.
func TestBadInputErrorContext(t *testing.T) {
	g := hypergraph.New(4)
	g.AddEdge(2, 1, 2)
	g.AddEdge(7, 3, 4) // label out of range
	_, err := Compress(g, 2, DefaultOptions())
	if err == nil {
		t.Fatal("expected label range error")
	}
	for _, want := range []string{"label 7", "3 -> 4", "1..2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("label error %q missing context %q", err, want)
		}
	}

	h := hypergraph.New(4)
	h.AddEdge(1, 2, 3, 4) // hyperedge input
	_, err = Compress(h, 2, DefaultOptions())
	if err == nil {
		t.Fatal("expected rank error")
	}
	for _, want := range []string{"label 1", "[2 3 4]", "rank 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rank error %q missing context %q", err, want)
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	g := chainGraph(8)
	before := g.Triples()
	if _, err := Compress(g, 2, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	after := g.Triples()
	if len(before) != len(after) {
		t.Fatal("input mutated")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("input mutated")
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomSimpleGraph(rng, 80, 300, 3)
	a, err := Compress(g, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(g, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Grammar.Size() != b.Grammar.Size() || a.Grammar.NumRules() != b.Grammar.NumRules() {
		t.Fatalf("nondeterministic compression: (%d,%d) vs (%d,%d)",
			a.Grammar.Size(), a.Grammar.NumRules(), b.Grammar.Size(), b.Grammar.NumRules())
	}
	da, db := mustDerive(t, a.Grammar), mustDerive(t, b.Grammar)
	if !hypergraph.EqualHyper(da, db) {
		t.Fatal("derivations differ across runs")
	}
}

func randomSimpleGraph(rng *rand.Rand, n, m int, labels int) *hypergraph.Graph {
	var triples []hypergraph.Triple
	for i := 0; i < m; i++ {
		triples = append(triples, hypergraph.Triple{
			Src:   hypergraph.NodeID(1 + rng.Intn(n)),
			Dst:   hypergraph.NodeID(1 + rng.Intn(n)),
			Label: hypergraph.Label(1 + rng.Intn(labels)),
		})
	}
	g, _ := hypergraph.FromTriples(n, triples)
	return g
}

// The central property: for random graphs across all orders and
// maxRanks, the grammar derives a graph isomorphic to the input.
func TestRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(60)
		m := rng.Intn(4 * n)
		labels := 1 + rng.Intn(3)
		g := randomSimpleGraph(rng, n, m, labels)
		opts := Options{
			MaxRank:           2 + rng.Intn(4),
			Order:             order.Kinds[rng.Intn(len(order.Kinds))],
			Seed:              rng.Int63(),
			ConnectComponents: rng.Intn(2) == 0,
			SkipPrune:         rng.Intn(4) == 0,
		}
		res, err := Compress(g, hypergraph.Label(labels), opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		derived := mustDerive(t, res.Grammar)
		if !iso.Isomorphic(g, derived) {
			t.Fatalf("trial %d (opts %+v): roundtrip failed", trial, opts)
		}
	}
}

func TestGrammarSmallerOnRepetitiveGraph(t *testing.T) {
	// Many copies of the same 5-edge motif sharing a backbone: the
	// grammar must be smaller than the graph.
	n := 50
	g := hypergraph.New(3*n + 1)
	for i := 0; i < n; i++ {
		b := hypergraph.NodeID(3 * i)
		g.AddEdge(1, b+1, b+2)
		g.AddEdge(2, b+2, b+3)
		g.AddEdge(1, b+2, b+4)
	}
	res := compressAndCheck(t, g, 2, DefaultOptions())
	if res.Grammar.Size() >= g.TotalSize() {
		t.Fatalf("no compression: grammar %d vs graph %d", res.Grammar.Size(), g.TotalSize())
	}
}
