package core

import (
	"fmt"
	"slices"
	"testing"

	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
	"graphrepair/internal/order"
)

// isoNodeLimit bounds the graphs we hand to the exact isomorphism
// test. Everything in the generator catalog except dblp60-90 (91k
// nodes, ~1 min of backtracking) stays under it comfortably; above the
// limit the harness falls back to checkStructuralEquiv, which is still
// a strong (if not complete) equivalence witness.
const isoNodeLimit = 20000

// checkRoundTrip compresses g, fully derives the grammar and asserts
// the derivation is isomorphic to the input — the correctness backstop
// for perf PRs: any rewrite of the order/prune/compressor layers that
// changes what the grammar *means* (rather than how fast it is built)
// fails here even if it produces a structurally valid grammar.
func checkRoundTrip(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, opts Options) {
	t.Helper()
	res, err := Compress(g, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDerivesInput(t, g, res.Grammar)
}

// roundTripLeaves compresses g once and runs the round trip as two
// leaves: "classic" derives the compressor's grammar, and legacyLeaf
// derives the grammar read back from its archive relabelled version 2.
func roundTripLeaves(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, opts Options) {
	t.Helper()
	res, err := Compress(g, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("classic", func(t *testing.T) {
		checkDerivesInput(t, g, res.Grammar)
	})
	t.Run(legacyLeaf, func(t *testing.T) {
		buf, _, err := encoding.Encode(res.Grammar)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := encoding.Decode(asLegacyArchive(buf))
		if err != nil {
			t.Fatalf("decode version-2 archive: %v", err)
		}
		checkDerivesInput(t, g, dec)
	})
}

// checkDerivesInput fully derives gram and asserts the derivation is
// isomorphic to g (structurally equivalent above isoNodeLimit).
func checkDerivesInput(t *testing.T, g *hypergraph.Graph, gram *grammar.Grammar) {
	t.Helper()
	derived, err := gram.Derive(int64(g.NumNodes()) + 16)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	if derived.NumNodes() != g.NumNodes() || derived.NumEdges() != g.NumEdges() {
		t.Fatalf("derived sizes (%d nodes, %d edges) != input (%d, %d)",
			derived.NumNodes(), derived.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if g.NumNodes() <= isoNodeLimit {
		if !iso.Isomorphic(g, derived) {
			t.Fatal("derived graph not isomorphic to input")
		}
	} else {
		checkStructuralEquiv(t, g, derived)
	}
}

// checkStructuralEquiv asserts isomorphism-invariant structure matches:
// per-label edge counts and the multiset of (out-degree, in-degree)
// pairs. Used only above isoNodeLimit.
func checkStructuralEquiv(t *testing.T, a, b *hypergraph.Graph) {
	t.Helper()
	labelHist := func(g *hypergraph.Graph) map[hypergraph.Label]int {
		h := map[hypergraph.Label]int{}
		for id := range g.EdgesSeq() {
			h[g.Label(id)]++
		}
		return h
	}
	ha, hb := labelHist(a), labelHist(b)
	if len(ha) != len(hb) {
		t.Fatalf("label histograms differ: %d vs %d labels", len(ha), len(hb))
	}
	for l, n := range ha {
		if hb[l] != n {
			t.Fatalf("label %d: %d edges in input, %d derived", l, n, hb[l])
		}
	}
	degrees := func(g *hypergraph.Graph) []uint64 {
		out := make([]uint64, 0, g.NumNodes())
		outDeg := make(map[hypergraph.NodeID]uint32, g.NumNodes())
		inDeg := make(map[hypergraph.NodeID]uint32, g.NumNodes())
		for id := range g.EdgesSeq() {
			att := g.Att(id)
			outDeg[att[0]]++
			inDeg[att[1]]++
		}
		for _, v := range g.Nodes() {
			out = append(out, uint64(outDeg[v])<<32|uint64(inDeg[v]))
		}
		slices.Sort(out)
		return out
	}
	da, db := degrees(a), degrees(b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("degree-pair multisets differ at rank %d: %x vs %x", i, da[i], db[i])
		}
	}
}

// TestGeneratorRoundTrip runs the derive-and-isomorphism round trip
// over the full generator catalog with the paper's default
// configuration: every workload family the repo models must
// decompress back to its input.
func TestGeneratorRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("generator round trip is seconds-per-model; skipped in -short")
	}
	for _, name := range gen.Names("") {
		t.Run(name, func(t *testing.T) {
			d, err := gen.Generate(name, 2048)
			if err != nil {
				t.Fatal(err)
			}
			roundTripLeaves(t, d.Graph, d.Labels, DefaultOptions())
		})
	}
}

// TestGeneratorRoundTripScales re-runs the round trip at scales where
// the generators actually produce different graphs (most models
// bottom out at their minimum floor well before scale 2048).
func TestGeneratorRoundTripScales(t *testing.T) {
	if testing.Short() {
		t.Skip("generator round trip is seconds-per-model; skipped in -short")
	}
	for _, name := range []string{"rdf-types-ru", "wiki-talk", "notredame", "rdf-jamendo"} {
		for _, scale := range []int{512, 2048} {
			t.Run(fmt.Sprintf("%s/scale%d", name, scale), func(t *testing.T) {
				d, err := gen.Generate(name, scale)
				if err != nil {
					t.Fatal(err)
				}
				roundTripLeaves(t, d.Graph, d.Labels, DefaultOptions())
			})
		}
	}
}

// TestGeneratorRoundTripMatrix sweeps node order × MaxRank on one
// small model per workload family: the configuration axes that steer
// the compressor down different replacement paths must all round-trip.
func TestGeneratorRoundTripMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("order × MaxRank sweep is seconds-per-model; skipped in -short")
	}
	models := []string{"ca-grqc", "rdf-identica", "ttt", "wiki-vote"}
	for _, name := range models {
		d, err := gen.Generate(name, 8192)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order.Kinds {
			for _, mr := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/maxRank%d", name, k, mr), func(t *testing.T) {
					opts := Options{MaxRank: mr, Order: k, Seed: 7, ConnectComponents: true}
					checkRoundTrip(t, d.Graph, d.Labels, opts)
				})
			}
		}
	}
}
