package grammar

import (
	"runtime"
	"slices"
	"testing"

	"graphrepair/internal/hypergraph"
)

// contributingGrammar builds a grammar whose single rule has positive
// contribution (rank-2 rule of size 5 referenced 6 times: con =
// 6·(5−3)−5 = 7 > 0), so Prune keeps everything — the steady state of
// a grammar that has already been pruned.
func contributingGrammar() *Grammar {
	rhs := hypergraph.New(3)
	rhs.AddEdge(1, 1, 3)
	rhs.AddEdge(1, 3, 2)
	rhs.SetExt(1, 2)

	start := hypergraph.New(8)
	g := New(1, start)
	a := g.AddRule(rhs)
	for i := 0; i < 6; i++ {
		start.AddEdge(a, hypergraph.NodeID(1+i), hypergraph.NodeID(2+i))
	}
	return g
}

// TestPruneAllocationBudget pins the steady-state allocation behavior
// of Prune to zero: with the scratch arena warm and nothing left to
// remove, re-running the full pruning pass (reference counting, the
// single-reference fixpoint scan, the bottom-up contribution sweep)
// must not allocate. This is the guard that keeps the index-based
// refcount/worklist rewrite from regressing to the old map-and-closure
// shape.
func TestPruneAllocationBudget(t *testing.T) {
	g := contributingGrammar()
	if removed := g.Prune(); removed != 0 {
		t.Fatalf("setup grammar lost %d rules; want a fully contributing grammar", removed)
	}
	if n := testing.AllocsPerRun(100, func() {
		if g.Prune() != 0 {
			t.Fatal("steady-state Prune removed a rule")
		}
	}); n != 0 {
		t.Errorf("no-op Prune allocates %v/op in steady state, want 0", n)
	}
}

// TestPruneInlinePresizeAllocs pins the batch pre-sizing of
// inlineRuleIn: when Prune inlines a rule referenced k times by one
// host, the host's node/edge/attachment tables are reserved once from
// the aggregate totals (k × the rule's counts), so the per-edge
// Inline calls find sufficient capacity and the whole batch costs a
// small constant number of grows instead of O(k) incremental ones.
func TestPruneInlinePresizeAllocs(t *testing.T) {
	const k = 64
	build := func() *Grammar {
		// A rank-2 rule holding a single terminal edge: con =
		// refs·(size−rank−1)−size < 0 for every refs, so Prune always
		// inlines it — the batch path, k edges in one host.
		rhs := hypergraph.New(2)
		rhs.AddEdge(1, 1, 2)
		rhs.SetExt(1, 2)
		start := hypergraph.New(k + 1)
		g := New(1, start)
		a := g.AddRule(rhs)
		for i := 0; i < k; i++ {
			start.AddEdge(a, hypergraph.NodeID(i+1), hypergraph.NodeID(i+2))
		}
		return g
	}
	warm := build() // warm the scratch arena on a throwaway twin
	warm.Prune()

	g := build()
	g.scratch = warm.scratch
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	removed := g.Prune()
	runtime.ReadMemStats(&m1)
	if removed != 1 {
		t.Fatalf("Prune removed %d rules, want 1", removed)
	}
	if got := g.Start.NumEdges(); got != k {
		t.Fatalf("start has %d edges after inlining, want %d", got, k)
	}
	perOp := float64(m1.Mallocs-m0.Mallocs) / k
	// The aggregate reservation grows each host table at most a few
	// times for the whole batch; amortized per inlined edge that is
	// well under 2 allocations. Without the pre-size, every Inline
	// paid its own slices.Grow rounds.
	if perOp > 2 {
		t.Errorf("batch inline allocates %.2f/edge; want pre-sized growth (≤ 2)", perOp)
	}
}

// TestInlineScratchReuse pins Inline's arena behavior: inlining k
// edges of the same rule must allocate only what the host graph's own
// growth requires (AddNode/AddEdge bookkeeping), not per-call maps or
// buffers. Inline consumes its edge, so the budget is measured as a
// Mallocs delta over one pass of distinct edges instead of
// AllocsPerRun (which re-runs its body).
func TestInlineScratchReuse(t *testing.T) {
	// Warm the scratch with one inline on a throwaway grammar so the
	// measured pass starts at the arena's high-water mark.
	warm := contributingGrammar()
	warm.Inline(warm.Start, slices.Collect(warm.Start.EdgesSeq())[0])

	g := contributingGrammar()
	g.scratch = warm.scratch // transplant the warm arena
	ids := slices.Collect(g.Start.EdgesSeq())

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, id := range ids {
		g.Inline(g.Start, id)
	}
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.Mallocs-m0.Mallocs) / float64(len(ids))

	// One rank-2 rule inline adds 1 node and 2 edges to the host:
	// AddNode appends to four per-node tables and each AddEdge copies
	// its attachment and appends incidence entries — with append
	// doubling that amortizes to well under 16 allocations. The old
	// map-based Inline added a node map, two mapped-attachment slices
	// and a fresh result slice on every call on top of that.
	if perOp > 16 {
		t.Errorf("Inline allocates %.1f/op; want only host-graph growth (≤ 16)", perOp)
	}
}
