package order

import (
	"slices"
	"testing"

	"graphrepair/internal/hypergraph"
)

// fuzzGraph decodes a small random graph from fuzz bytes: data[0]
// picks the node count (its low five bits) and two flags (bits 5 and
// 6), then the rest becomes edges. Self-loops are dropped (the
// hypergraph forbids them); parallel edges are kept — orders must
// tolerate them.
func fuzzGraph(data []byte) *hypergraph.Graph {
	n, flags := 2, byte(0)
	if len(data) > 0 {
		n, flags = 2+int(data[0]%32), data[0]
	}
	return fuzzGraphN(n, flags, data)
}

// Flags of fuzzGraph's first byte.
const (
	// fuzzHyper makes each edge a 5-byte record (sel, a, b, c, d): an
	// edge of rank 2+sel%3 on the first nodes of a, b, c, d, kept only
	// when they are distinct. The compressor refines graphs with
	// nonterminal hyperedges of rank up to 4 and more.
	fuzzHyper = 1 << 5
	// fuzzWide draws labels from wideLabels, some past the 20 bits a
	// packed tuple holds as is, and one whose packed tuple is negative.
	fuzzWide = 1 << 6
)

var wideLabels = []hypergraph.Label{1, 2, 1 + 1<<19, 1 + 1<<20, 1<<31 - 1}

// fuzzGraphN is fuzzGraph with the node count and flags given;
// data[0] is skipped all the same. Without flags, byte triples become
// (src, dst, label) edges.
func fuzzGraphN(n int, flags byte, data []byte) *hypergraph.Graph {
	label := func(b byte) hypergraph.Label {
		if flags&fuzzWide != 0 {
			return wideLabels[int(b)%len(wideLabels)]
		}
		return hypergraph.Label(1 + b%3)
	}
	g := hypergraph.New(n)
	if flags&fuzzHyper == 0 {
		for i := 1; i+2 < len(data); i += 3 {
			u := hypergraph.NodeID(1 + int(data[i])%n)
			v := hypergraph.NodeID(1 + int(data[i+1])%n)
			if u != v {
				g.AddEdge(label(data[i+2]), u, v)
			}
		}
		return g
	}
	var att []hypergraph.NodeID
	for i := 1; i+4 < len(data); i += 5 {
		sel := data[i]
		att = att[:0]
		for _, b := range data[i+1 : i+3+int(sel%3)] {
			att = append(att, hypergraph.NodeID(1+int(b)%n))
		}
		if len(slices.Compact(slices.Sorted(slices.Values(att)))) == len(att) {
			g.AddEdge(label(sel/3), att...)
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
// seed. FP and FP0 must equal the naive twin (twinOrder) in every
// case. It additionally replays the compressor's stage pattern —
// remove edges and nodes, recompute with the *same warm Refiner* — and
// asserts the recomputed order is identical to a from-scratch
// computation, which is exactly the invariant that keeps the golden
// grammars byte-stable (DESIGN.md §7).
func FuzzOrder(f *testing.F) {
	f.Add(int64(0), []byte{5, 1, 2, 0, 2, 3, 1, 3, 4, 2})
	f.Add(int64(42), []byte{31, 9, 3, 0, 7, 7, 1})
	f.Add(int64(-1), []byte{})
	// An alternating a/b chain of 32 nodes, a star of 20 leaves, an
	// rdf-like graph (leaves pointing at three hubs of unequal degree),
	// and hyperedges with wide labels.
	chain := []byte{31}
	for i := byte(0); i < 31; i++ {
		chain = append(chain, i, i+1, i%2)
	}
	f.Add(int64(1), chain)
	star := []byte{20}
	for i := byte(1); i <= 20; i++ {
		star = append(star, 0, i, 0)
	}
	f.Add(int64(2), star)
	rdf := []byte{31}
	for i := byte(3); i < 32; i++ {
		rdf = append(rdf, i, i%7%3, 0)
	}
	f.Add(int64(3), rdf)
	f.Add(int64(4), []byte{fuzzHyper | fuzzWide | 9, 0, 1, 2, 3, 4, 1, 2, 3, 4, 5, 2, 0, 1, 6, 7, 3, 5, 6, 0, 0, 4, 1, 2, 7, 8})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		g := fuzzGraph(data)
		warm := NewRefiner()
		for _, k := range AllKinds {
			r1 := Compute(g, k, seed)
			checkPermutation(t, g, k, r1)
			matchesTwin(t, g, k, "scratch", r1)
			sameOrder(t, k, "determinism", r1, Compute(g, k, seed))
			// A Refiner warmed on arbitrary previous state must agree
			// with the one-shot computation.
			sameOrder(t, k, "warm refiner", r1, warm.Compute(g, k, seed))
		}

		// Stage replay: shrink the graph like a replacement pass does,
		// then recompute on the warm Refiner (whose buffers and
		// previous order are left from the larger graph) and compare
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
			for _, k := range AllKinds {
				got := warm.Compute(g, k, seed)
				checkPermutation(t, g, k, got)
				matchesTwin(t, g, k, "shrunk", got)
				sameOrder(t, k, "incremental vs scratch", Compute(g, k, seed), got)
			}
		}

		// Reset replay: the warm Refiner moves on to unrelated graphs,
		// one smaller and one larger, as a sharded compression's pool
		// compressor does between shards.
		n := g.NumNodes()
		flags := byte(0)
		if len(data) > 0 {
			flags = data[0]
		}
		rev := slices.Clone(data)
		slices.Reverse(rev)
		for _, h := range []*hypergraph.Graph{fuzzGraphN(2+n/2, flags, rev), fuzzGraphN(n+40, flags, data)} {
			warm.Reset()
			for _, k := range AllKinds {
				got := warm.Compute(h, k, seed)
				matchesTwin(t, h, k, "reset", got)
				sameOrder(t, k, "reset vs scratch", Compute(h, k, seed), got)
			}
		}
	})
}
