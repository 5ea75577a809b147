package grammar

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// chainGrammar builds n nested rank-2 rules, each referencing the
// next-higher label: rule k has a terminal edge 1→3 and an edge of
// rule k+1 from 3 to 2, and the last rule is a single terminal edge.
// The start graph is one edge of the first rule, so val(G) is a path
// of n edges and height(G) = n.
func chainGrammar(n int) *Grammar {
	start := hypergraph.New(2)
	g := New(1, start)
	for k := range n {
		var rhs *hypergraph.Graph
		if k < n-1 {
			rhs = hypergraph.New(3)
			rhs.AddEdge(1, 1, 3)
			rhs.AddEdge(g.Terminals+2+hypergraph.Label(k), 3, 2)
		} else {
			rhs = hypergraph.New(2)
			rhs.AddEdge(1, 1, 2)
		}
		rhs.SetExt(1, 2)
		g.AddRule(rhs)
	}
	start.AddEdge(g.Terminals+1, 1, 2)
	return g
}

// TestDeepChain pins that no grammar-level pass recurses over the rule
// DAG: on a 1 MB goroutine stack, a chain of 2^16 nested rules is
// validated, counted, measured and derived. A pass that recursed once
// per rule would overflow that stack, which is a fatal error no
// recover can catch.
func TestDeepChain(t *testing.T) {
	const n = 1 << 16
	g := chainGrammar(n)
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if nodes, edges := g.DerivedSize(); nodes != n+1 || edges != n {
		t.Fatalf("DerivedSize = (%d, %d), want (%d, %d)", nodes, edges, n+1, n)
	}
	if h := g.Height(); h != n {
		t.Fatalf("Height = %d, want %d", h, n)
	}
	nodes, edges := mustDerivedCounts(t, g)
	ref := g.RefCounts()
	if ref[0] != 1 || nodes[0] != n-1 || edges[0] != n {
		t.Fatalf("rule 0: ref %d, derives %d nodes, %d edges", ref[0], nodes[0], edges[0])
	}
	if ref[n-1] != 1 || nodes[n-1] != 0 || edges[n-1] != 1 {
		t.Fatalf("rule %d: ref %d, derives %d nodes, %d edges", n-1, ref[n-1], nodes[n-1], edges[n-1])
	}
	h, err := g.DeriveContext(context.Background(), govern.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != n+1 || h.NumEdges() != n {
		t.Fatalf("val(G) has %d nodes, %d edges; want %d, %d", h.NumNodes(), h.NumEdges(), n+1, n)
	}
	// The numbering walks the path: 1 → 3 → 4 → … → n+1 → 2.
	first, last := hypergraph.EdgeID(0), hypergraph.EdgeID(n-1)
	if a := h.Att(first); a[0] != 1 || a[1] != 3 {
		t.Fatalf("first edge %v, want [1 3]", a)
	}
	if a := h.Att(last); a[0] != n+1 || a[1] != 2 {
		t.Fatalf("last edge %v, want [%d 2]", a, n+1)
	}
}

// TestDeriveRejectsInt32Overflow pins the ID-range gate: 31 doubling
// rules derive 2^31+1 nodes, more than int32 node IDs can number, so
// DeriveContext refuses them with a *LimitError even under no limits,
// from the analytic counts and before reserving anything.
func TestDeriveRejectsInt32Overflow(t *testing.T) {
	g := doublingGrammar(31)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h, err := g.DeriveContext(context.Background(), govern.Limits{})
	runtime.ReadMemStats(&m1)
	var le *govern.LimitError
	if !errors.As(err, &le) || le.Resource != "derived nodes" {
		t.Fatalf("DeriveContext = %v, %v; want a derived-nodes *LimitError", h, err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the bomb allocated %d bytes, want < 1 MB", got)
	}
}
