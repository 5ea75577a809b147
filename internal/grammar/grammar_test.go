package grammar

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
)

// figure1Grammar builds the grammar of paper Fig. 1a: S = A·A·A chain,
// A → (1)-a->(x)-b->(2) with external source and target.
func figure1Grammar() *Grammar {
	const a, b = 1, 2
	rhs := hypergraph.New(3)
	rhs.AddEdge(a, 1, 2)
	rhs.AddEdge(b, 2, 3)
	rhs.SetExt(1, 3)

	s := hypergraph.New(4)
	g := New(2, s)
	A := g.AddRule(rhs)
	s.AddEdge(A, 1, 2)
	s.AddEdge(A, 2, 3)
	s.AddEdge(A, 3, 4)
	return g
}

func TestFigure1Derivation(t *testing.T) {
	g := figure1Grammar()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	got := mustDerive(t, g)
	// Fig. 1b: the terminal graph has three a- and three b-edges.
	if got.NumNodes() != 7 || got.NumEdges() != 6 {
		t.Fatalf("val(G): %d nodes %d edges, want 7/6", got.NumNodes(), got.NumEdges())
	}
	na, nb := 0, 0
	for id := range got.EdgesSeq() {
		switch got.Label(id) {
		case 1:
			na++
		case 2:
			nb++
		}
	}
	if na != 3 || nb != 3 {
		t.Fatalf("a-edges=%d b-edges=%d, want 3/3", na, nb)
	}
	// Deterministic numbering: a second derivation is identical.
	if !hypergraph.EqualHyper(got, mustDerive(t, g)) {
		t.Fatal("val(G) not deterministic")
	}
	// The chain 1→…→7-ish must be one weak component.
	if len(got.WeakComponents()) != 1 {
		t.Fatal("derived chain disconnected")
	}
}

func TestDerivedSizeMatchesDerive(t *testing.T) {
	g := figure1Grammar()
	nodes, edges := g.DerivedSize()
	got := mustDerive(t, g)
	if nodes != int64(got.NumNodes()) || edges != int64(got.NumEdges()) {
		t.Fatalf("DerivedSize = (%d,%d), actual (%d,%d)",
			nodes, edges, got.NumNodes(), got.NumEdges())
	}
}

func TestDeriveLimit(t *testing.T) {
	g := figure1Grammar()
	if _, err := g.Derive(3); err == nil {
		t.Fatal("expected limit error")
	}
	if _, err := g.Derive(7); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDerivation(t *testing.T) {
	// B → A·A where A → a-edge pair; exponential doubling, 2 levels.
	const a = 1
	g := New(1, nil)
	rhsA := hypergraph.New(3)
	rhsA.AddEdge(a, 1, 2)
	rhsA.AddEdge(a, 2, 3)
	rhsA.SetExt(1, 3)
	A := g.AddRule(rhsA)

	rhsB := hypergraph.New(3)
	rhsB.AddEdge(A, 1, 2)
	rhsB.AddEdge(A, 2, 3)
	rhsB.SetExt(1, 3)
	B := g.AddRule(rhsB)

	s := hypergraph.New(2)
	s.AddEdge(B, 1, 2)
	g.Start = s

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if h := g.Height(); h != 2 {
		t.Fatalf("height = %d, want 2", h)
	}
	got := mustDerive(t, g)
	// B derives 4 a-edges on a path of 5 nodes.
	if got.NumNodes() != 5 || got.NumEdges() != 4 {
		t.Fatalf("val: %d nodes %d edges", got.NumNodes(), got.NumEdges())
	}
	if !got.Reachable(1, 2) {
		t.Fatal("external path endpoints must stay connected")
	}
}

func TestValidateCatchesRankMismatch(t *testing.T) {
	g := figure1Grammar()
	// Attach an A-edge with 3 nodes (A has rank 2).
	g.Start.AddEdge(3, 1, 2, 3)
	if err := g.Validate(); err == nil {
		t.Fatal("expected rank-mismatch error")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := New(1, hypergraph.New(1))
	rhs := hypergraph.New(2)
	rhs.SetExt(1, 2)
	A := g.AddRule(rhs)
	rhs.AddEdge(A, 1, 2) // A references itself
	if err := g.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestInlinePreservesDerivation(t *testing.T) {
	g := figure1Grammar()
	want := mustDerive(t, g)
	// Inline the middle A-edge of the start graph.
	var target hypergraph.EdgeID = -1
	for id := range g.Start.EdgesSeq() {
		if !g.IsTerminal(g.Start.Label(id)) {
			target = id
		}
	}
	g.Inline(g.Start, target)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	got := mustDerive(t, g)
	if !iso.Isomorphic(want, got) {
		t.Fatal("inlining changed the derived graph")
	}
}

func TestContributionPaperExample(t *testing.T) {
	// Sec. III-A3 worked example (Fig. 6/7): a rank-2 rule of size 5
	// (two external nodes, one internal, two simple edges) referenced
	// 4 times: con(A) = 4·(5−3)−5 = 3, which the paper confirms is
	// exactly the size difference between grammar and derived graph.
	g := New(1, hypergraph.New(3))
	rhs := hypergraph.New(3)
	rhs.AddEdge(1, 1, 3)
	rhs.AddEdge(1, 3, 2)
	rhs.SetExt(1, 2)
	A := g.AddRule(rhs)
	if got := g.Contribution(A, 4); got != 3 {
		t.Fatalf("con(A) = %d, want 3", got)
	}
	if HandleSize(1) != 2 || HandleSize(2) != 3 || HandleSize(3) != 6 || HandleSize(5) != 10 {
		t.Fatal("HandleSize wrong")
	}
	// Verify con() against mechanics: derive all 4 references and
	// compare actual sizes.
	s := hypergraph.New(5)
	s.AddEdge(A, 1, 2)
	s.AddEdge(A, 2, 3)
	s.AddEdge(A, 3, 4)
	s.AddEdge(A, 4, 5)
	g.Start = s
	before := g.Size()
	derived := mustDerive(t, g)
	if got := before + g.Contribution(A, 4); got != derived.TotalSize() {
		t.Fatalf("con mismatch: |G| + con = %d, |val(G)| = %d", got, derived.TotalSize())
	}
}

func TestPruneRemovesSingleReference(t *testing.T) {
	// A referenced once: must be inlined regardless of size.
	const a = 1
	g := New(1, nil)
	rhs := hypergraph.New(4)
	rhs.AddEdge(a, 1, 2)
	rhs.AddEdge(a, 2, 3)
	rhs.AddEdge(a, 3, 4)
	rhs.SetExt(1, 4)
	A := g.AddRule(rhs)
	s := hypergraph.New(2)
	s.AddEdge(A, 1, 2)
	g.Start = s

	want := mustDerive(t, g)
	if n := g.Prune(); n != 1 {
		t.Fatalf("pruned %d rules, want 1", n)
	}
	if g.NumRules() != 0 {
		t.Fatal("rule list not compacted")
	}
	got := mustDerive(t, g)
	if !iso.Isomorphic(want, got) {
		t.Fatal("pruning changed derived graph")
	}
}

func TestPruneKeepsContributingRule(t *testing.T) {
	// A of rank 2 with a 5-node path rhs (size 9), referenced 3 times:
	// con(A) = 3·(9−1)−9 = 15 > 0 → kept.
	const a = 1
	g := New(1, nil)
	rhs := hypergraph.New(5)
	for i := 1; i < 5; i++ {
		rhs.AddEdge(a, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	rhs.SetExt(1, 5)
	A := g.AddRule(rhs)
	s := hypergraph.New(4)
	s.AddEdge(A, 1, 2)
	s.AddEdge(A, 2, 3)
	s.AddEdge(A, 3, 4)
	g.Start = s

	want := mustDerive(t, g)
	if n := g.Prune(); n != 0 {
		t.Fatalf("pruned %d rules, want 0", n)
	}
	if !iso.Isomorphic(want, mustDerive(t, g)) {
		t.Fatal("prune changed derivation")
	}
	_ = A
}

func TestPruneCascade(t *testing.T) {
	// B → A-edge + terminal edge, used once from S; A used only inside
	// B. Pruning must inline B (ref 1), after which A has ref 1 and is
	// inlined by the same fixpoint pass.
	const a = 1
	g := New(1, nil)
	rhsA := hypergraph.New(2)
	rhsA.AddEdge(a, 1, 2)
	rhsA.SetExt(1, 2)
	A := g.AddRule(rhsA)
	rhsB := hypergraph.New(3)
	rhsB.AddEdge(A, 1, 2)
	rhsB.AddEdge(a, 2, 3)
	rhsB.SetExt(1, 3)
	B := g.AddRule(rhsB)
	s := hypergraph.New(2)
	s.AddEdge(B, 1, 2)
	g.Start = s

	want := mustDerive(t, g)
	g.Prune()
	if g.NumRules() != 0 {
		t.Fatalf("expected all rules pruned, %d left", g.NumRules())
	}
	if !iso.Isomorphic(want, mustDerive(t, g)) {
		t.Fatal("cascade prune changed derivation")
	}
}

// randomGrammar builds a random valid SL-HR grammar, bottom-up.
func randomGrammar(rng *rand.Rand) *Grammar {
	terms := hypergraph.Label(1 + rng.Intn(3))
	g := New(terms, nil)
	var nts []hypergraph.Label
	nRules := rng.Intn(5)
	for i := 0; i < nRules; i++ {
		n := 2 + rng.Intn(4)
		rhs := hypergraph.New(n)
		nEdges := 1 + rng.Intn(4)
		for j := 0; j < nEdges; j++ {
			// Pick a label: terminal or an existing nonterminal.
			var lab hypergraph.Label
			var rank int
			if len(nts) > 0 && rng.Intn(3) == 0 {
				lab = nts[rng.Intn(len(nts))]
				rank = g.RankOf(lab)
			} else {
				lab = 1 + hypergraph.Label(rng.Intn(int(terms)))
				rank = 2
			}
			if rank > n {
				continue
			}
			att := rng.Perm(n)[:rank]
			natt := make([]hypergraph.NodeID, rank)
			for k, a := range att {
				natt[k] = hypergraph.NodeID(a + 1)
			}
			rhs.AddEdge(lab, natt...)
		}
		r := 1 + rng.Intn(n)
		ext := rng.Perm(n)[:r]
		next := make([]hypergraph.NodeID, r)
		for k, x := range ext {
			next[k] = hypergraph.NodeID(x + 1)
		}
		rhs.SetExt(next...)
		nts = append(nts, g.AddRule(rhs))
	}
	n := 3 + rng.Intn(5)
	s := hypergraph.New(n)
	for j := 0; j < 2+rng.Intn(6); j++ {
		var lab hypergraph.Label
		var rank int
		if len(nts) > 0 && rng.Intn(2) == 0 {
			lab = nts[rng.Intn(len(nts))]
			rank = g.RankOf(lab)
		} else {
			lab = 1 + hypergraph.Label(rng.Intn(int(terms)))
			rank = 2
		}
		if rank > n {
			continue
		}
		att := rng.Perm(n)[:rank]
		natt := make([]hypergraph.NodeID, rank)
		for k, a := range att {
			natt[k] = hypergraph.NodeID(a + 1)
		}
		s.AddEdge(lab, natt...)
	}
	g.Start = s
	return g
}

func TestPrunePreservesDerivationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		g := randomGrammar(rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random grammar: %v", trial, err)
		}
		want, err := g.Derive(5000)
		if err != nil {
			continue // too large; skip
		}
		g.Prune()
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: grammar invalid after prune: %v", trial, err)
		}
		got := mustDerive(t, g)
		if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
			t.Fatalf("trial %d: prune changed sizes: (%d,%d) vs (%d,%d)",
				trial, want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
		}
		if want.NumNodes() <= 200 && !iso.Isomorphic(want, got) {
			t.Fatalf("trial %d: prune changed derived graph", trial)
		}
	}
}

func TestRefCounts(t *testing.T) {
	g := figure1Grammar()
	ref := make([]int32, g.NumRules())
	g.countRefs(ref)
	if ref[0] != 3 {
		t.Fatalf("ref(A) = %d, want 3", ref[0])
	}
}

func TestSizeMeasures(t *testing.T) {
	g := figure1Grammar()
	// S: 4 nodes + 3 simple NT edges = 7; rhs(A): 3 nodes + 2 edges = 5.
	if g.Size() != 12 {
		t.Fatalf("|G| = %d, want 12", g.Size())
	}
	if g.EdgeSize() != 5 || g.NodeSize() != 7 {
		t.Fatalf("|G|E=%d |G|V=%d, want 5/7", g.EdgeSize(), g.NodeSize())
	}
}

// TestStatsAndSummary pins the counts of Fig. 1's grammar: one rule
// of rank 2 and its derived-count table (TestRefCounts pins ref(A)).
func TestStatsAndSummary(t *testing.T) {
	g := figure1Grammar()
	if g.NumRules() != 1 || g.RankOf(g.Terminals+1) != 2 {
		t.Fatalf("%d rules, rank(A) = %d; want 1 rule of rank 2", g.NumRules(), g.RankOf(g.Terminals+1))
	}
	// One A-edge derives 1 internal node and 2 edges; val(G) has 7
	// nodes and 6 edges (Fig. 1b).
	nodes, edges := mustDerivedCounts(t, g)
	if nodes[0] != 1 || edges[0] != 2 || nodes[1] != 7 || edges[1] != 6 {
		t.Fatalf("derived counts: nodes %v, edges %v; want [1 7], [2 6]", nodes, edges)
	}
}

// TestSortedNTEdgesOrder pins the packed-key sort against the plain
// definition of the canonical order — (label, attachment sequence),
// then edge ID — on a start graph with ranks 1 to 5 (so attachments
// both shorter and longer than the packed prefix), parallel duplicate
// edges and terminal edges interleaved.
func TestSortedNTEdgesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	start := hypergraph.New(8)
	g := New(2, start)
	var labels []hypergraph.Label
	for r := 1; r <= 5; r++ {
		rhs := hypergraph.New(r)
		ext := make([]hypergraph.NodeID, r)
		for i := range ext {
			ext[i] = hypergraph.NodeID(i + 1)
		}
		rhs.SetExt(ext...)
		labels = append(labels, g.AddRule(rhs))
	}
	for range 200 {
		if rng.Intn(4) == 0 {
			start.AddEdge(hypergraph.Label(1+rng.Intn(2)), hypergraph.NodeID(1+rng.Intn(4)), hypergraph.NodeID(5+rng.Intn(4)))
			continue
		}
		r := 1 + rng.Intn(5)
		// Few distinct attachments per rank, so duplicates are common.
		att := rng.Perm(4 + r%2)[:r]
		nodes := make([]hypergraph.NodeID, r)
		for i, x := range att {
			nodes[i] = hypergraph.NodeID(x + 1)
		}
		start.AddEdge(labels[r-1], nodes...)
	}
	var want []hypergraph.EdgeID
	for id := range start.EdgesSeq() {
		if !g.IsTerminal(start.Label(id)) {
			want = append(want, id)
		}
	}
	slices.SortStableFunc(want, func(a, b hypergraph.EdgeID) int {
		if c := cmp.Compare(start.Label(a), start.Label(b)); c != 0 {
			return c
		}
		return slices.Compare(start.Att(a), start.Att(b))
	})
	for i := 1; i < len(want); i++ {
		if CompareNTEdges(start, want[i-1], want[i]) >= 0 {
			t.Fatalf("CompareNTEdges(%d, %d) >= 0, want the edges in sorted order", want[i-1], want[i])
		}
	}
	if got := g.SortedNTEdges(start); !slices.Equal(got, want) {
		t.Fatalf("SortedNTEdges = %v, want %v", got, want)
	}
}
