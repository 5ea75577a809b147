package graphrepair_test

import (
	"testing"

	"graphrepair"
	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/query"
)

// TestFullPipelineOnCatalog runs the complete pipeline — generate,
// compress, encode, decode, derive — on every dataset analog of the
// paper's Tables I–III (at small scale) and validates:
//
//  1. encoder-side and decoder-side val(G) are the identical graph;
//  2. the derivation is isomorphic to the input (exact check for small
//     graphs, invariant battery for larger ones);
//  3. the query engine agrees with the derived graph on components,
//     degree statistics, label histogram and sampled neighborhoods.
func TestFullPipelineOnCatalog(t *testing.T) {
	for _, name := range gen.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := gen.Generate(name, 256)
			if err != nil {
				t.Fatal(err)
			}
			g := d.Graph
			res, err := graphrepair.Compress(g, d.Labels, graphrepair.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			buf, sizes, err := graphrepair.Encode(res.Grammar)
			if err != nil {
				t.Fatal(err)
			}
			if sizes.TotalBytes() != len(buf) {
				t.Fatal("size accounting mismatch")
			}
			dec, err := graphrepair.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			want := mustDerive(t, res.Grammar)
			got := mustDerive(t, dec)
			if !hypergraph.EqualHyper(want, got) {
				t.Fatal("decoder-side val(G) differs from encoder-side")
			}
			if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
				t.Fatalf("derived (%d,%d) vs input (%d,%d)",
					got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			if g.NumNodes() <= 400 {
				if !graphrepair.Isomorphic(g, got) {
					t.Fatal("derived graph not isomorphic to input")
				}
			} else {
				// Invariant battery for larger graphs.
				hg, hd := labelHistogram(g), labelHistogram(got)
				for l, c := range hg {
					if hd[l] != c {
						t.Fatalf("label %d count %d vs %d", l, hd[l], c)
					}
				}
				if degreeChecksum(g) != degreeChecksum(got) {
					t.Fatal("degree multiset differs")
				}
			}

			// Query engine vs derived graph.
			eng, err := graphrepair.NewEngine(dec)
			if err != nil {
				t.Fatal(err)
			}
			if eng.ComponentCount() != int64(len(got.WeakComponents())) {
				t.Fatal("component count mismatch")
			}
			mn, mx, err := eng.DegreeStats(query.Both)
			if err != nil {
				t.Fatal(err)
			}
			wmn, wmx := int64(1<<62), int64(0)
			for _, v := range got.Nodes() {
				dv := int64(got.Degree(v))
				if dv < wmn {
					wmn = dv
				}
				if dv > wmx {
					wmx = dv
				}
			}
			if mn != wmn || mx != wmx {
				t.Fatalf("degree stats (%d,%d) vs (%d,%d)", mn, mx, wmn, wmx)
			}
			hist := eng.LabelHistogram()
			for l, c := range labelHistogram(got) {
				if hist[l] != c {
					t.Fatalf("histogram label %d: %d vs %d", l, hist[l], c)
				}
			}
			step := eng.NumNodes()/25 + 1
			for k := int64(1); k <= eng.NumNodes(); k += step {
				nb, err := eng.Neighbors(k, query.Out)
				if err != nil {
					t.Fatal(err)
				}
				want := got.OutNeighbors(hypergraph.NodeID(k))
				if len(nb) != len(want) {
					t.Fatalf("node %d out-neighbors %d vs %d", k, len(nb), len(want))
				}
			}
		})
	}
}

func labelHistogram(g *hypergraph.Graph) map[hypergraph.Label]int64 {
	h := map[hypergraph.Label]int64{}
	for id := range g.EdgesSeq() {
		h[g.Label(id)]++
	}
	return h
}

func degreeChecksum(g *hypergraph.Graph) uint64 {
	var sum uint64
	for _, v := range g.Nodes() {
		d := uint64(g.Degree(v))
		sum += d * d * 31
	}
	return sum
}
