package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"testing"

	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// goldenGrammars pins the sha256 of the encoded grammar for fixed
// corpora across every node order. The values were produced by the
// pre-optimization compressor (PR 1 baseline); the optimized hot path
// must reproduce them byte for byte, proving the allocation work
// changed no grammar. Regenerate with GOLDEN_PRINT=1 go test -run
// TestGoldenGrammars ./internal/core (only when an intentional
// algorithm change lands, never for a perf change).
var goldenGrammars = map[string]string{
	"ca-grqc/bfs":                   "a35a378b054d523d",
	"ca-grqc/dfs":                   "2f1e87f001a7d3d8",
	"ca-grqc/fp":                    "64414f3bc9937453",
	"ca-grqc/fp0":                   "6a785f709fef67cd",
	"ca-grqc/maxRank2":              "6e15b508f178b914",
	"ca-grqc/maxRank8-noPrune":      "71e0eae173d75abd",
	"ca-grqc/natural":               "2bca013eb077a265",
	"ca-grqc/random":                "4ca8eaf695bf68fa",
	"chain64/bfs":                   "b8c04560bb1b5fa1",
	"chain64/dfs":                   "b8c04560bb1b5fa1",
	"chain64/fp":                    "147bf5e18da26404",
	"chain64/fp0":                   "b8c04560bb1b5fa1",
	"chain64/maxRank2":              "147bf5e18da26404",
	"chain64/maxRank8-noPrune":      "147bf5e18da26404",
	"chain64/natural":               "b8c04560bb1b5fa1",
	"chain64/random":                "5fbb62ad001bde0e",
	"circles32/bfs":                 "85282e0fe7ad7078",
	"circles32/dfs":                 "85282e0fe7ad7078",
	"circles32/fp":                  "f82feefc5db76694",
	"circles32/fp0":                 "23214d0115a6b98a",
	"circles32/maxRank2":            "f82feefc5db76694",
	"circles32/maxRank8-noPrune":    "783d2f707d716d55",
	"circles32/natural":             "85282e0fe7ad7078",
	"circles32/random":              "4c8f043e929ba940",
	"dblp60-70/bfs":                 "9ac85bf73215363c",
	"dblp60-70/dfs":                 "9ac85bf73215363c",
	"dblp60-70/fp":                  "4814d8ca39d991ec",
	"dblp60-70/fp0":                 "d708354f7e7877cc",
	"dblp60-70/maxRank2":            "de2a333cf2459ff5",
	"dblp60-70/maxRank8-noPrune":    "e5edf361dd250ca6",
	"dblp60-70/natural":             "c7930f55add8689f",
	"dblp60-70/random":              "4d5716370d723931",
	"rdf-types-ru/bfs":              "32d543ee35aaa725",
	"rdf-types-ru/dfs":              "32d543ee35aaa725",
	"rdf-types-ru/fp":               "4bdf4a32b4223704",
	"rdf-types-ru/fp0":              "433b512182c0cc83",
	"rdf-types-ru/maxRank2":         "1b625e68c30a57a1",
	"rdf-types-ru/maxRank8-noPrune": "9a888ad18aac31c8",
	"rdf-types-ru/natural":          "6f4795d73682e9cb",
	"rdf-types-ru/random":           "9d61e203f370a203",
	"star128/bfs":                   "929feda2edd5fd05",
	"star128/dfs":                   "929feda2edd5fd05",
	"star128/fp":                    "929feda2edd5fd05",
	"star128/fp0":                   "929feda2edd5fd05",
	"star128/maxRank2":              "929feda2edd5fd05",
	"star128/maxRank8-noPrune":      "a899e2f65afed989",
	"star128/natural":               "929feda2edd5fd05",
	"star128/random":                "929feda2edd5fd05",
}

func goldenCorpora(t testing.TB) map[string]struct {
	g      *hypergraph.Graph
	labels hypergraph.Label
} {
	t.Helper()
	out := map[string]struct {
		g      *hypergraph.Graph
		labels hypergraph.Label
	}{}
	add := func(name string, g *hypergraph.Graph, labels hypergraph.Label) {
		out[name] = struct {
			g      *hypergraph.Graph
			labels hypergraph.Label
		}{g, labels}
	}
	add("chain64", chainGraph(64), 2)
	star := hypergraph.New(129)
	for i := 1; i <= 128; i++ {
		star.AddEdge(1, hypergraph.NodeID(i), 129)
	}
	add("star128", star, 1)
	add("circles32", gen.CircleCopies(32), 1)
	for _, name := range []string{"ca-grqc", "rdf-types-ru", "dblp60-70"} {
		d, err := gen.Generate(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		add(name, d.Graph, d.Labels)
	}
	return out
}

func encodeHash(t testing.TB, g *hypergraph.Graph, labels hypergraph.Label, opts Options) string {
	t.Helper()
	res, err := Compress(g, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := encoding.Encode(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf)
	return hex.EncodeToString(h[:8])
}

// TestGoldenGrammars asserts the compressor produces byte-identical
// encoded grammars to the pre-optimization path on fixed generator
// corpora, across order.AllKinds and a MaxRank/prune sweep.
func TestGoldenGrammars(t *testing.T) {
	corpora := goldenCorpora(t)
	// Default options are covered by the AllKinds sweep below;
	// these variants add a MaxRank/prune spread on top.
	variants := []struct {
		tag  string
		opts Options
	}{
		{"maxRank2", Options{MaxRank: 2, Order: order.FP, ConnectComponents: true}},
		{"maxRank8-noPrune", Options{MaxRank: 8, Order: order.FP, SkipPrune: true}},
	}

	got := map[string]string{}
	for name, c := range corpora {
		for _, k := range order.AllKinds {
			opts := DefaultOptions()
			opts.Order = k
			opts.Seed = 42
			got[fmt.Sprintf("%s/%s", name, k)] = encodeHash(t, c.g, c.labels, opts)
		}
		for _, v := range variants {
			got[fmt.Sprintf("%s/%s", name, v.tag)] = encodeHash(t, c.g, c.labels, v.opts)
		}
	}

	if os.Getenv("GOLDEN_PRINT") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		return
	}
	if len(goldenGrammars) == 0 {
		t.Fatal("golden table empty; regenerate with GOLDEN_PRINT=1")
	}
	for k, want := range goldenGrammars {
		if got[k] != want {
			t.Errorf("%s: encoded grammar hash %s, want %s (output drifted from the pinned compressor)", k, got[k], want)
		}
	}
	for k := range got {
		if _, ok := goldenGrammars[k]; !ok {
			t.Errorf("%s: missing golden entry", k)
		}
	}
}
