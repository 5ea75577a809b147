package core

import (
	"math/rand"
	"testing"

	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
	"graphrepair/internal/order"
)

func TestDuplicateVetoDiamonds(t *testing.T) {
	// Many diamonds u→vi→w over the same (u, w): replacing every
	// occurrence of the 2-edge digram would create parallel rank-2
	// nonterminal edges with identical attachment, which adjacency
	// matrices cannot hold; all but one must be skipped and
	// correctness preserved.
	g := hypergraph.New(8)
	u, w := hypergraph.NodeID(7), hypergraph.NodeID(8)
	for v := hypergraph.NodeID(1); v <= 6; v++ {
		g.AddEdge(1, u, v)
		g.AddEdge(1, v, w)
	}
	res, err := Compress(g, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedDuplicates == 0 {
		t.Fatal("expected duplicate-creating replacements to be skipped")
	}
	if !iso.Isomorphic(g, mustDerive(t, res.Grammar)) {
		t.Fatal("duplicate veto broke the roundtrip")
	}
}

func TestIsolatedNodesSurvive(t *testing.T) {
	// Isolated nodes must survive compression, the virtual-edge stage
	// (which chains them) and decompression.
	g := hypergraph.New(10)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 3, 4)
	res, err := Compress(g, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := mustDerive(t, res.Grammar)
	if d.NumNodes() != 10 || d.NumEdges() != 2 {
		t.Fatalf("derived (%d,%d), want (10,2)", d.NumNodes(), d.NumEdges())
	}
	if len(d.WeakComponents()) != 8 {
		t.Fatalf("components = %d, want 8", len(d.WeakComponents()))
	}
}

func TestManyLabelsRoundtrip(t *testing.T) {
	// Wide alphabets exercise the per-label grouping paths.
	rng := rand.New(rand.NewSource(3))
	var triples []hypergraph.Triple
	for i := 0; i < 300; i++ {
		triples = append(triples, hypergraph.Triple{
			Src:   hypergraph.NodeID(1 + rng.Intn(40)),
			Dst:   hypergraph.NodeID(1 + rng.Intn(40)),
			Label: hypergraph.Label(1 + rng.Intn(30)),
		})
	}
	g, _ := hypergraph.FromTriples(40, triples)
	res, err := Compress(g, 30, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !iso.Isomorphic(g, mustDerive(t, res.Grammar)) {
		t.Fatal("many-label roundtrip failed")
	}
}

func TestBipartiteCompleteGraph(t *testing.T) {
	// Dense bicliques: the digram around shared sources repeats
	// heavily; correctness under heavy replacement pressure.
	g := hypergraph.New(20)
	for s := hypergraph.NodeID(1); s <= 10; s++ {
		for d := hypergraph.NodeID(11); d <= 20; d++ {
			g.AddEdge(1, s, d)
		}
	}
	res, err := Compress(g, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	derived := mustDerive(t, res.Grammar)
	if derived.NumEdges() != 100 || derived.NumNodes() != 20 {
		t.Fatalf("derived (%d,%d)", derived.NumNodes(), derived.NumEdges())
	}
	if !iso.Isomorphic(g, derived) {
		t.Fatal("biclique roundtrip failed")
	}
}

func TestTwoNodeCycle(t *testing.T) {
	// Antiparallel edges share two nodes: the multi-shared-node dedup
	// rule (count at the ω-smallest shared node only) applies.
	g := hypergraph.New(8)
	for i := 0; i < 4; i++ {
		a := hypergraph.NodeID(2*i + 1)
		b := hypergraph.NodeID(2*i + 2)
		g.AddEdge(1, a, b)
		g.AddEdge(1, b, a)
	}
	res, err := Compress(g, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !iso.Isomorphic(g, mustDerive(t, res.Grammar)) {
		t.Fatal("antiparallel roundtrip failed")
	}
}

func TestFixpointStagesTerminate(t *testing.T) {
	// A pathological lattice that keeps producing new digrams; the
	// stage fixpoint must terminate and stay correct.
	rng := rand.New(rand.NewSource(8))
	g := randomSimpleGraph(rng, 120, 600, 2)
	res, err := Compress(g, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := mustDerive(t, res.Grammar)
	if d.NumNodes() != g.NumNodes() || d.NumEdges() != g.NumEdges() {
		t.Fatal("fixpoint broke sizes")
	}
}

func TestSkipPruneKeepsAllRules(t *testing.T) {
	g := chainGraph(32)
	with, err := Compress(g, 2, Options{MaxRank: 4, Order: order.FP, ConnectComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Compress(g, 2, Options{MaxRank: 4, Order: order.FP, ConnectComponents: true, SkipPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.Stats.RulesPruned != 0 {
		t.Fatal("SkipPrune ignored")
	}
	if without.Grammar.NumRules() < with.Grammar.NumRules() {
		t.Fatal("pruning added rules?")
	}
}

func TestStartRemapCoversStartGraph(t *testing.T) {
	g := chainGraph(16)
	res, err := Compress(g, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Grammar.Start
	remap := res.StartRemap()
	if got := len(remap); got != int(g.MaxNodeID())+1 {
		t.Fatalf("flat remap has %d entries, want input table size %d", got, g.MaxNodeID()+1)
	}
	seen := map[hypergraph.NodeID]bool{}
	for orig, now := range remap {
		if now == 0 {
			continue
		}
		if !g.HasNode(hypergraph.NodeID(orig)) || !s.HasNode(now) || seen[now] {
			t.Fatalf("StartRemap inconsistent at input node %d -> %d", orig, now)
		}
		seen[now] = true
	}
	if len(seen) != s.NumNodes() {
		t.Fatalf("remap covers %d nodes, start graph has %d", len(seen), s.NumNodes())
	}
}
