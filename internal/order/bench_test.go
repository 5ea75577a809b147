package order

import (
	"sync"
	"testing"

	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
)

// refineInputs are BenchmarkRefine's graphs, built once per process:
// perfbench's rdf input (rdf-types-ru at paper scale, 642,340 nodes,
// three FP rounds), Fig. 1's alternating chain of 8,193 nodes (about
// 4,100 FP rounds, each splitting off a few nodes) and the sequential
// versions input (dblp60-70 version graphs, 23,811 nodes).
var refineInputs = sync.OnceValue(func() []struct {
	name string
	g    *hypergraph.Graph
} {
	return []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"rdf", gen.RDFTypes(642310, 30, 1.0001, 1)},
		{"chain", chainGraph(4096)},
		{"versions", gen.DBLPVersionGraph(11, gen.DefaultDBLPParams(1))},
	}
})

// BenchmarkRefine times one-shot FP and FP0 Computes, fresh buffers
// included, as the first stage of a compression pays them; B/op is
// the Refiner's byte budget on the input.
func BenchmarkRefine(b *testing.B) {
	for _, in := range refineInputs() {
		for _, k := range []Kind{FP, FP0} {
			b.Run(in.name+"/"+k.String(), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					Compute(in.g, k, 0)
				}
			})
		}
	}
}
