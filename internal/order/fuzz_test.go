package order

import (
	"slices"
	"testing"

	"graphrepair/internal/hypergraph"
)

// fuzzGraph decodes a small random graph from fuzz bytes: data[0]
// picks the node count, then byte triples become (src, dst, label)
// edges. Self-loops are dropped (the hypergraph forbids them);
// parallel edges are kept — orders must tolerate them.
func fuzzGraph(data []byte) *hypergraph.Graph {
	n := 2
	if len(data) > 0 {
		n = 2 + int(data[0]%32)
	}
	return fuzzGraphN(n, data)
}

// fuzzGraphN is fuzzGraph with the node count given; data[0] is
// skipped all the same.
func fuzzGraphN(n int, data []byte) *hypergraph.Graph {
	g := hypergraph.New(n)
	for i := 1; i+2 < len(data); i += 3 {
		u := hypergraph.NodeID(1 + int(data[i])%n)
		v := hypergraph.NodeID(1 + int(data[i+1])%n)
		if u != v {
			g.AddEdge(hypergraph.Label(1+data[i+2]%3), u, v)
		}
	}
	return g
}

// checkPermutation asserts r is a valid order of g: Seq is a
// permutation of the alive nodes and Pos is its inverse.
func checkPermutation(t *testing.T, g *hypergraph.Graph, k Kind, r *Result) {
	t.Helper()
	if len(r.Seq) != g.NumNodes() {
		t.Fatalf("%s: |Seq| = %d, want %d alive nodes", k, len(r.Seq), g.NumNodes())
	}
	seen := make(map[hypergraph.NodeID]bool, len(r.Seq))
	for i, v := range r.Seq {
		if !g.HasNode(v) {
			t.Fatalf("%s: Seq[%d] = %d is not alive", k, i, v)
		}
		if seen[v] {
			t.Fatalf("%s: node %d appears twice", k, v)
		}
		seen[v] = true
		if r.Pos[v] != int32(i) {
			t.Fatalf("%s: Pos[%d] = %d, want %d", k, v, r.Pos[v], i)
		}
	}
	if r.Classes < 0 || r.Classes > g.NumNodes() {
		t.Fatalf("%s: Classes = %d out of range 0..%d", k, r.Classes, g.NumNodes())
	}
}

// sameOrder asserts two results are identical: Seq, Pos and Classes.
func sameOrder(t *testing.T, k Kind, what string, a, b *Result) {
	t.Helper()
	if len(a.Seq) != len(b.Seq) || a.Classes != b.Classes {
		t.Fatalf("%s: %s: (|Seq|, Classes) = (%d, %d) vs (%d, %d)",
			k, what, len(a.Seq), a.Classes, len(b.Seq), b.Classes)
	}
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			t.Fatalf("%s: %s: Seq[%d] = %d vs %d", k, what, i, a.Seq[i], b.Seq[i])
		}
	}
	if !slices.Equal(a.Pos, b.Pos) {
		t.Fatalf("%s: %s: Pos differs (%d vs %d entries)", k, what, len(a.Pos), len(b.Pos))
	}
}

// FuzzOrder feeds random graphs through every order kind and asserts
// the two contracts the compressor relies on: the result is a valid
// permutation of the alive nodes, and it is deterministic for a fixed
// seed. It additionally replays the compressor's stage pattern —
// remove edges and nodes, recompute with the *same warm Refiner* — and
// asserts the incrementally refined order is identical to a
// from-scratch computation, which is exactly the invariant that keeps
// the golden grammars byte-stable (DESIGN.md §7).
func FuzzOrder(f *testing.F) {
	f.Add(int64(0), []byte{5, 1, 2, 0, 2, 3, 1, 3, 4, 2})
	f.Add(int64(42), []byte{31, 9, 3, 0, 7, 7, 1})
	f.Add(int64(-1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		g := fuzzGraph(data)
		warm := NewRefiner()
		for _, k := range ExtendedKinds {
			r1 := Compute(g, k, seed)
			checkPermutation(t, g, k, r1)
			sameOrder(t, k, "determinism", r1, Compute(g, k, seed))
			// A Refiner warmed on arbitrary previous state must agree
			// with the one-shot computation.
			sameOrder(t, k, "warm refiner", r1, warm.Compute(g, k, seed))
		}

		// Stage replay: shrink the graph like a replacement pass does,
		// then recompute on the warm Refiner (whose buffers and
		// previous order now seed the refinement) and compare
		// from-scratch.
		removed := 0
		for id := range g.EdgesSeq() {
			if int(id)%3 == 0 {
				g.RemoveEdge(id)
				removed++
			}
		}
		for v := hypergraph.NodeID(1); v <= g.MaxNodeID(); v++ {
			if g.HasNode(v) && g.Degree(v) == 0 && int(v)%2 == 0 {
				g.RemoveNode(v)
			}
		}
		if removed > 0 || g.NumNodes() > 0 {
			for _, k := range ExtendedKinds {
				fresh := Compute(g, k, seed)
				checkPermutation(t, g, k, fresh)
				sameOrder(t, k, "incremental vs scratch", fresh, warm.Compute(g, k, seed))
			}
		}

		// Reset replay: the warm Refiner moves on to unrelated graphs,
		// one smaller and one larger, as a sharded compression's pool
		// compressor does between shards.
		n := g.NumNodes()
		rev := slices.Clone(data)
		slices.Reverse(rev)
		for _, h := range []*hypergraph.Graph{fuzzGraphN(2+n/2, rev), fuzzGraphN(n+40, data)} {
			warm.Reset()
			for _, k := range ExtendedKinds {
				sameOrder(t, k, "reset vs scratch", Compute(h, k, seed), warm.Compute(h, k, seed))
			}
		}
	})
}
