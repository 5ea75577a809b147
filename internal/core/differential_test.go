package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"graphrepair/internal/core/reference"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
	"graphrepair/internal/order"
)

// The differential harness runs the arena compressor and the naive
// reference compressor (internal/core/reference) over the same inputs
// and asserts they produce identical grammars: equal stats, equal rule
// counts, byte-identical encodings, and a derivation isomorphic to the
// input. The golden hashes pin the optimized compressor to 60 fixed
// corpora; the differential pins it to an executable specification on
// arbitrary inputs, so every future arena rewrite is checked against
// semantics, not just bytes (DESIGN.md §10). Every case runs as two
// leaves (also in the round-trip harness): "classic" is the check
// itself, and legacyLeaf reads the result back through a version-2
// archive header.

// legacyLeaf names the subtest that reads a case's grammar back through
// a version-2 archive, the header version the removed max-repeat mode
// wrote (DESIGN.md §15). The decoder still reads version 2 as an alias
// of version 1; the leaf keeps the mode's name so test IDs stay
// comparable with earlier runs.
const legacyLeaf = "maxrepeat"

// asLegacyArchive returns a copy of a version-1 archive with its header
// version byte (the byte after the 4-byte magic) set to 2.
func asLegacyArchive(buf []byte) []byte {
	v2 := slices.Clone(buf)
	v2[4] = 2
	return v2
}

// refOptions mirrors core Options into the reference package's copy.
func refOptions(o Options) reference.Options {
	return reference.Options{
		MaxRank:           o.MaxRank,
		Order:             o.Order,
		Seed:              o.Seed,
		ConnectComponents: o.ConnectComponents,
		SkipPrune:         o.SkipPrune,
		SinglePass:        o.SinglePass,
	}
}

// diffLeaves runs checkDifferential as the "classic" leaf, then checks
// in the legacyLeaf leaf that the arena archive, relabelled version 2,
// decodes to a grammar that re-encodes to the reference's bytes.
func diffLeaves(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, opts Options, deriveCheck bool) {
	t.Helper()
	var bufA, bufR []byte
	t.Run("classic", func(t *testing.T) {
		bufA, bufR = checkDifferential(t, g, labels, opts, deriveCheck)
	})
	t.Run(legacyLeaf, func(t *testing.T) {
		if bufA == nil {
			t.Fatal("no arena archive: the classic leaf failed")
		}
		dec, err := encoding.Decode(asLegacyArchive(bufA))
		if err != nil {
			t.Fatalf("decode version-2 archive: %v", err)
		}
		re, _, err := encoding.Encode(dec)
		if err != nil {
			t.Fatalf("re-encode decoded grammar: %v", err)
		}
		if !bytes.Equal(re, bufR) {
			t.Errorf("version-2 archive re-encodes to %d bytes differing from the reference's %d", len(re), len(bufR))
		}
	})
}

// checkDifferential compresses g with both compressors and fails on
// any observable divergence. When deriveCheck is true the reference
// grammar is also derived and checked isomorphic to the input (the
// encodings being byte-identical, this covers the arena grammar too).
// It returns the arena and reference encodings.
func checkDifferential(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, opts Options, deriveCheck bool) (bufA, bufR []byte) {
	t.Helper()
	res, err := Compress(g, labels, opts)
	if err != nil {
		t.Fatalf("arena compressor: %v", err)
	}
	ref, err := reference.Compress(g, labels, refOptions(opts))
	if err != nil {
		t.Fatalf("reference compressor: %v", err)
	}
	if res.Grammar.NumRules() != ref.Grammar.NumRules() {
		t.Errorf("rule count: arena %d, reference %d", res.Grammar.NumRules(), ref.Grammar.NumRules())
	}
	refStats := Stats{
		Rounds:            ref.Stats.Rounds,
		Replacements:      ref.Stats.Replacements,
		RulesPruned:       ref.Stats.RulesPruned,
		VirtualEdges:      ref.Stats.VirtualEdges,
		SkippedDuplicates: ref.Stats.SkippedDuplicates,
		FPClasses:         ref.Stats.FPClasses,
	}
	if res.Stats != refStats {
		t.Errorf("stats: arena %+v, reference %+v", res.Stats, refStats)
	}
	if !slices.Equal(res.StartRemap(), ref.StartRemap) {
		t.Errorf("start remaps differ: arena %d entries, reference %d", len(res.StartRemap()), len(ref.StartRemap))
	}
	bufA, _, err = encoding.Encode(res.Grammar)
	if err != nil {
		t.Fatalf("encode arena grammar: %v", err)
	}
	bufR, _, err = encoding.Encode(ref.Grammar)
	if err != nil {
		t.Fatalf("encode reference grammar: %v", err)
	}
	if !bytes.Equal(bufA, bufR) {
		t.Errorf("encoded grammars differ: arena %d bytes, reference %d bytes", len(bufA), len(bufR))
	}
	if t.Failed() || !deriveCheck {
		return bufA, bufR
	}
	derived, err := ref.Grammar.Derive(int64(g.NumNodes()) + 16)
	if err != nil {
		t.Fatalf("derive reference grammar: %v", err)
	}
	if g.NumNodes() <= isoNodeLimit {
		if !iso.Isomorphic(g, derived) {
			t.Error("reference derivation not isomorphic to input")
		}
	} else {
		checkStructuralEquiv(t, g, derived)
	}
	return bufA, bufR
}

// TestDifferentialCatalog runs the differential over the full
// generator catalog with the paper's default configuration.
func TestDifferentialCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("differential catalog sweep is seconds-per-model; skipped in -short")
	}
	for _, name := range gen.Names("") {
		t.Run(name, func(t *testing.T) {
			d, err := gen.Generate(name, 2048)
			if err != nil {
				t.Fatal(err)
			}
			diffLeaves(t, d.Graph, d.Labels, DefaultOptions(), true)
		})
	}
}

// TestDifferentialScales re-runs the differential at scales where the
// generators produce different graphs (mirroring the round-trip
// harness's scale split).
func TestDifferentialScales(t *testing.T) {
	if testing.Short() {
		t.Skip("differential scale sweep is seconds-per-model; skipped in -short")
	}
	for _, name := range []string{"rdf-types-ru", "wiki-talk", "notredame", "rdf-jamendo"} {
		for _, scale := range []int{512, 2048} {
			t.Run(fmt.Sprintf("%s/scale%d", name, scale), func(t *testing.T) {
				d, err := gen.Generate(name, scale)
				if err != nil {
					t.Fatal(err)
				}
				diffLeaves(t, d.Graph, d.Labels, DefaultOptions(), true)
			})
		}
	}
}

// TestDifferentialMatrix sweeps node order × MaxRank (plus the prune
// and single-pass toggles) on one small model per workload family: the
// configuration axes that steer the compressor down different
// replacement paths must all agree with the reference.
func TestDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("order × MaxRank differential sweep is seconds-per-model; skipped in -short")
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
					diffLeaves(t, d.Graph, d.Labels, opts, false)
				})
			}
		}
		t.Run(name+"/noPrune-singlePass", func(t *testing.T) {
			opts := Options{MaxRank: 4, Order: order.FP, SkipPrune: true, SinglePass: true}
			diffLeaves(t, d.Graph, d.Labels, opts, false)
		})
	}
}
