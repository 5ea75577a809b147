package grammar_test

import (
	"context"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/gen"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// compressCatalog compresses catalog dataset name at the given scale
// divisor with the default options.
func compressCatalog(tb testing.TB, name string, scale int) *grammar.Grammar {
	tb.Helper()
	d, err := gen.Generate(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Compress(d.Graph, d.Labels, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return res.Grammar
}

// TestDeriveAllocs pins that DeriveContext allocates a small number of
// times whatever the size of val(G): the output graph is reserved once
// from the derived counts, and the expansion runs on flat tables sized
// from the grammar. Each dataset at two scales derives graphs 5–8×
// apart in size under the same budget (they take 18 or 19
// allocations).
func TestDeriveAllocs(t *testing.T) {
	const budget = 24
	for _, name := range []string{"notredame", "rdf-jamendo", "rdf-types-ru"} {
		for _, scale := range []int{256, 32} {
			g := compressCatalog(t, name, scale)
			var h *hypergraph.Graph
			n := testing.AllocsPerRun(3, func() {
				var err error
				if h, err = g.DeriveContext(context.Background(), govern.Limits{}); err != nil {
					t.Fatal(err)
				}
			})
			if n > budget {
				t.Errorf("%s/%d: DeriveContext of %d nodes, %d edges allocates %v times, want ≤ %d",
					name, scale, h.NumNodes(), h.NumEdges(), n, budget)
			}
		}
	}
}

// TestStatsMatchRuleDerivations pins the flat derived-count table
// against materialization: across the catalog, every rule's
// DerivedCounts entries equal the internal nodes and the edges of the
// graph its right-hand side derives on its own, with the rule's other
// references and the real start graph out of the picture. Reference
// counts are checked against a plain count of labeled edges.
func TestStatsMatchRuleDerivations(t *testing.T) {
	if testing.Short() {
		t.Skip("derives every rule of every catalog grammar; skipped in -short")
	}
	for _, name := range gen.Names("") {
		g := compressCatalog(t, name, 2048)
		order, err := g.BottomUpOrder()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes, edges := g.DerivedCounts(order)
		ref := g.RefCounts()
		// one holds g's rules under the same labels; its start graph
		// is swapped for one edge of the rule under test.
		one := grammar.New(g.Terminals, nil)
		refs := map[hypergraph.Label]int{}
		count := func(h *hypergraph.Graph) {
			for id := range h.EdgesSeq() {
				refs[h.Label(id)]++
			}
		}
		count(g.Start)
		for _, l := range g.Nonterminals() {
			one.AddRule(g.Rule(l))
			count(g.Rule(l))
		}
		for i, l := range g.Nonterminals() {
			if int(ref[i]) != refs[l] {
				t.Fatalf("%s: rule %d: ref = %d, want %d", name, l, ref[i], refs[l])
			}
			rank := g.RankOf(l)
			one.Start = hypergraph.New(rank)
			att := make([]hypergraph.NodeID, rank)
			for j := range att {
				att[j] = hypergraph.NodeID(j + 1)
			}
			one.Start.AddEdge(l, att...)
			h, err := one.Derive(0)
			if err != nil {
				t.Fatalf("%s: rule %d: %v", name, l, err)
			}
			if int64(h.NumNodes()-rank) != nodes[i] || int64(h.NumEdges()) != edges[i] {
				t.Fatalf("%s: rule %d: DerivedCounts gives %d nodes, %d edges; deriving it gives %d, %d",
					name, l, nodes[i], edges[i], h.NumNodes()-rank, h.NumEdges())
			}
		}
	}
}
