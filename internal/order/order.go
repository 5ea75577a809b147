// Package order implements the node orders of "Compressing Graphs by
// Grammars" Sec. III-B1. The node order steers gRePair's greedy digram
// occurrence counting and is the main knob for compression quality.
//
// Orders: Natural (node IDs as given), BFS and DFS traversal orders,
// Random (seeded shuffle), FP0 (degree order), and FP — the fixpoint
// color refinement the paper introduces, which starts from node
// degrees and iteratively refines node colors by the sorted colors of
// their neighborhoods until a fixpoint is reached. FP also yields the
// equivalence relation ≅FP whose class count the paper correlates with
// compression ratio (Fig. 11). Kinds lists the five orders Fig. 10
// compares; AllKinds adds DFS.
//
// Computation lives in the Refiner, whose buffers persist across
// calls; the compressor holds one Refiner per run so per-stage
// reordering is allocation-free in steady state. Compute is the
// one-shot convenience wrapper.
package order

import (
	"fmt"

	"graphrepair/internal/hypergraph"
)

// Kind selects a node order.
type Kind int

// The available node orders.
const (
	Natural Kind = iota
	BFS
	DFS
	Random
	FP0
	FP
)

// String returns the name used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case Natural:
		return "natural"
	case BFS:
		return "bfs"
	case DFS:
		return "dfs"
	case Random:
		return "random"
	case FP0:
		return "fp0"
	case FP:
		return "fp"
	default:
		return fmt.Sprintf("order.Kind(%d)", int(k))
	}
}

// Kinds lists the paper's orders, in the order its Fig. 10 reports.
var Kinds = []Kind{Natural, BFS, FP0, FP, Random}

// AllKinds lists every implemented order: Fig. 10's five plus DFS.
var AllKinds = []Kind{Natural, BFS, DFS, FP0, FP, Random}

// Result is a computed node order.
type Result struct {
	// Seq lists the alive nodes in traversal order.
	Seq []hypergraph.NodeID
	// Pos maps a node ID to its position in Seq (-1 for dead nodes).
	// Indexed by NodeID; index 0 is unused.
	Pos []int32
	// Classes is the number of ≅ equivalence classes: for FP and FP0
	// the number of distinct colors at the fixpoint, for every other
	// order the number of nodes (the order is then total).
	Classes int
}

// Compute returns the requested order of g's alive nodes. The seed is
// used only by Random. It is the one-shot form of Refiner.Compute;
// callers that recompute orders repeatedly (one per compression
// stage) should hold a Refiner instead and reuse its buffers.
func Compute(g *hypergraph.Graph, kind Kind, seed int64) *Result {
	return NewRefiner().Compute(g, kind, seed)
}

// FPClasses returns |[≅FP]|, the number of equivalence classes of the
// FP fixpoint relation (reported in the paper's dataset tables).
func FPClasses(g *hypergraph.Graph) int { return Compute(g, FP, 0).Classes }
