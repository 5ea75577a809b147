package hypergraph

import (
	"slices"
	"testing"
)

// benchGraph builds a graph with n nodes, a ring of rank-2 edges and a
// sprinkling of tombstoned edges, so the iteration benchmark covers
// the dead-entry skip path too.
func benchGraph(n int) *Graph {
	g := New(n)
	for i := 1; i <= n; i++ {
		g.AddEdge(1, NodeID(i), NodeID(i%n+1))
	}
	for i := 1; i < n; i += 7 {
		id := g.AddEdge(2, NodeID(i), NodeID((i+1)%n+1))
		g.RemoveEdge(id)
	}
	return g
}

// BenchmarkEdgesSeq measures a full pass over the alive edges reading
// each label; the allocs/op column must stay at 0.
func BenchmarkEdgesSeq(b *testing.B) {
	g := benchGraph(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := 0
		for id := range g.EdgesSeq() {
			s += int(g.Label(id))
		}
		_ = s
	}
}

// TestEdgesSeqMatchesEdges pins the iterator to the alive edge IDs in
// ascending order, including after removals, and checks the
// documented mutation contract: removing the yielded edge mid-loop is
// safe, and edges added during the iteration are not yielded.
func TestEdgesSeqMatchesEdges(t *testing.T) {
	g := benchGraph(50)
	var want []EdgeID
	for id := EdgeID(0); id < g.MaxEdgeID(); id++ {
		if g.HasEdge(id) {
			want = append(want, id)
		}
	}
	if seq := slices.Collect(g.EdgesSeq()); !slices.Equal(seq, want) {
		t.Fatalf("EdgesSeq = %v, want the alive IDs %v", seq, want)
	}

	// Remove-current plus add-during-iteration: every pre-existing
	// alive edge is yielded exactly once, none of the added ones are.
	before := g.NumEdges()
	visited := 0
	for id := range g.EdgesSeq() {
		visited++
		g.AddEdge(3, 1, 2)
		g.RemoveEdge(id)
	}
	if visited != before {
		t.Fatalf("visited %d edges, want %d (added edges must not be yielded)", visited, before)
	}
	if g.NumEdges() != before {
		t.Fatalf("after remove+add per edge, NumEdges = %d, want %d", g.NumEdges(), before)
	}
}
