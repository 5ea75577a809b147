package core

import (
	"bytes"
	"testing"

	"graphrepair/internal/core/reference"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// fuzzMaxNodes and fuzzMaxTriples bound the graphs decoded from fuzz
// input so one fuzz iteration stays in the low milliseconds.
const (
	fuzzMaxNodes   = 63
	fuzzMaxTriples = 256
)

// graphFromFuzz decodes fuzz bytes into a compression scenario: a
// header selecting node count, alphabet size, MaxRank, node order and
// option flags, followed by (src, dst, label) byte triples. Every
// byte sequence decodes deterministically (self-loops and duplicate
// triples are dropped by FromTriples), so the fuzzer mutates freely.
func graphFromFuzz(data []byte) (*hypergraph.Graph, hypergraph.Label, Options, bool) {
	if len(data) < 8 {
		return nil, 0, Options{}, false
	}
	n := 2 + int(data[0])%(fuzzMaxNodes-1)
	labels := hypergraph.Label(1 + data[1]%3)
	flags := data[4]
	opts := Options{
		MaxRank:           2 + int(data[2])%7,
		Order:             order.AllKinds[int(data[3])%len(order.AllKinds)],
		Seed:              int64(data[4]),
		ConnectComponents: flags&1 != 0,
		SkipPrune:         flags&2 != 0,
		SinglePass:        flags&4 != 0,
	}
	var triples []hypergraph.Triple
	for rest := data[5:]; len(rest) >= 3 && len(triples) < fuzzMaxTriples; rest = rest[3:] {
		triples = append(triples, hypergraph.Triple{
			Src:   hypergraph.NodeID(1 + int(rest[0])%n),
			Dst:   hypergraph.NodeID(1 + int(rest[1])%n),
			Label: hypergraph.Label(1 + hypergraph.Label(rest[2])%labels),
		})
	}
	g, _ := hypergraph.FromTriples(n, triples)
	if g.NumEdges() == 0 {
		return nil, 0, Options{}, false
	}
	return g, labels, opts, true
}

// fuzzSeed serializes a concrete graph and configuration into the
// graphFromFuzz byte format, so the corpus starts from real catalog
// shapes instead of noise. Node IDs must be dense in 1..fuzzMaxNodes.
func fuzzSeed(g *hypergraph.Graph, labels hypergraph.Label, orderIdx, maxRankSel, flags byte) []byte {
	n := g.NumNodes()
	if n > fuzzMaxNodes {
		panic("fuzzSeed: graph too large for the fuzz format")
	}
	out := []byte{byte(n - 2), byte(labels - 1), maxRankSel, orderIdx, flags}
	count := 0
	for _, tr := range g.Triples() {
		if count == fuzzMaxTriples {
			break
		}
		out = append(out, byte(tr.Src-1), byte(tr.Dst-1), byte(tr.Label-1))
		count++
	}
	return out
}

// FuzzDifferential mutates graphs and compressor configurations and
// asserts the arena compressor and the naive reference compressor
// produce identical grammars — the same oracle as the differential
// harness, driven by coverage instead of the generator catalog.
// Divergences found here are kept under testdata/fuzz/FuzzDifferential
// as regression inputs.
func FuzzDifferential(f *testing.F) {
	star := hypergraph.New(21)
	for i := 1; i <= 20; i++ {
		star.AddEdge(1, hypergraph.NodeID(i), 21)
	}
	for _, seed := range [][]byte{
		fuzzSeed(chainGraph(20), 2, 4, 2, 1),        // fp order, maxRank 4
		fuzzSeed(chainGraph(12), 2, 0, 0, 3),        // natural order, no prune
		fuzzSeed(star, 1, 4, 1, 1),                  // hub pairing
		fuzzSeed(gen.CircleCopies(6), 1, 4, 2, 1),   // repeated components
		fuzzSeed(gen.CircleCopies(4), 1, 5, 6, 5),   // random order, single pass
		fuzzSeed(chainGraph(20), 2, 3, 6, 1),        // fp0 order, maxRank 8
		fuzzSeed(gen.CircleCopies(6), 1, 1, 0, 1),   // bfs order, maxRank 2
		fuzzSeed(chainGraph(12), 2, 2, 2, 6),        // dfs order, no prune, single pass, no virtual edges
		{40, 2, 3, 4, 1, 0, 1, 0, 1, 2, 1, 2, 3, 0}, // raw noise
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, labels, opts, ok := graphFromFuzz(data)
		if !ok {
			t.Skip()
		}
		res, err := Compress(g, labels, opts)
		if err != nil {
			t.Fatalf("arena compressor: %v", err)
		}
		ref, err := reference.Compress(g, labels, refOptions(opts))
		if err != nil {
			t.Fatalf("reference compressor: %v", err)
		}
		if res.Grammar.NumRules() != ref.Grammar.NumRules() {
			t.Fatalf("rule count: arena %d, reference %d", res.Grammar.NumRules(), ref.Grammar.NumRules())
		}
		if res.Stats.Replacements != ref.Stats.Replacements ||
			res.Stats.SkippedDuplicates != ref.Stats.SkippedDuplicates ||
			res.Stats.VirtualEdges != ref.Stats.VirtualEdges ||
			res.Stats.RulesPruned != ref.Stats.RulesPruned {
			t.Fatalf("stats: arena %+v, reference %+v", res.Stats, ref.Stats)
		}
		bufA, _, err := encoding.Encode(res.Grammar)
		if err != nil {
			t.Fatalf("encode arena grammar: %v", err)
		}
		bufR, _, err := encoding.Encode(ref.Grammar)
		if err != nil {
			t.Fatalf("encode reference grammar: %v", err)
		}
		if !bytes.Equal(bufA, bufR) {
			t.Fatalf("encoded grammars differ: arena %d bytes, reference %d bytes", len(bufA), len(bufR))
		}
	})
}
