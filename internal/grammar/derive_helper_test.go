package grammar

import (
	"testing"

	"graphrepair/internal/hypergraph"
)

// mustDerive materializes val(g), failing the test on error.
func mustDerive(tb testing.TB, g *Grammar) *hypergraph.Graph {
	tb.Helper()
	h, err := g.Derive(0)
	if err != nil {
		tb.Fatalf("Derive: %v", err)
	}
	return h
}

// RefCounts returns ref(A) for every rule, indexed like DerivedCounts.
// It exports countRefs to the external catalog tests.
func (g *Grammar) RefCounts() []int32 {
	ref := make([]int32, len(g.rules))
	g.countRefs(ref)
	return ref
}

// mustDerivedCounts returns DerivedCounts over g's bottom-up order,
// failing the test if g has no such order.
func mustDerivedCounts(tb testing.TB, g *Grammar) (nodes, edges []int64) {
	tb.Helper()
	order, err := g.BottomUpOrder()
	if err != nil {
		tb.Fatalf("BottomUpOrder: %v", err)
	}
	return g.DerivedCounts(order)
}
