package order

import (
	"math/rand"
	"testing"

	"graphrepair/internal/hypergraph"
)

func allocTestGraph() *hypergraph.Graph {
	rng := rand.New(rand.NewSource(9))
	g := hypergraph.New(120)
	for i := 0; i < 400; i++ {
		u := hypergraph.NodeID(1 + rng.Intn(120))
		v := hypergraph.NodeID(1 + rng.Intn(120))
		if u != v {
			g.AddEdge(hypergraph.Label(1+rng.Intn(3)), u, v)
		}
	}
	return g
}

// TestRefinerAllocationBudgets pins the Refiner's steady state to zero
// allocations: once its arenas are warm, recomputing any
// deterministic order — the FP fixpoint above all, which runs once
// per compression stage — must not allocate. Random is excluded (its
// seeded rand.Rand is allocated per call by design).
func TestRefinerAllocationBudgets(t *testing.T) {
	g := allocTestGraph()
	r := NewRefiner()
	for _, k := range []Kind{Natural, BFS, DFS, FP0, FP} {
		// Two warm-up rounds: the first grows the buffers, the second
		// verifies against the high-water mark the first established.
		r.Compute(g, k, 0)
		r.Compute(g, k, 0)
		if n := testing.AllocsPerRun(100, func() {
			r.Compute(g, k, 0)
		}); n != 0 {
			t.Errorf("%s: Refiner.Compute allocates %v/op in steady state, want 0", k, n)
		}
	}
}

// TestRefinerShrinkingGraphStaysWarm replays the compressor's stage
// pattern: the graph shrinks between stages, so the warm buffers
// always suffice and recomputation stays allocation-free.
func TestRefinerShrinkingGraphStaysWarm(t *testing.T) {
	g := allocTestGraph()
	r := NewRefiner()
	r.Compute(g, FP, 0)
	for stage := 0; stage < 3; stage++ {
		for id := range g.EdgesSeq() {
			if int(id)%4 == int(stage) {
				g.RemoveEdge(id)
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			r.Compute(g, FP, 0)
		}); n != 0 {
			t.Errorf("stage %d: Refiner.Compute allocates %v/op on shrunk graph, want 0", stage, n)
		}
	}
}
