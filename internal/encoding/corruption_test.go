package encoding

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/gen"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// sweepAllocBudget bounds what a single corrupted decode may charge;
// corruption must not be able to amplify into unbounded allocation.
const sweepAllocBudget = 64 << 20

// sweepCorpora returns the encoded form of the six golden corpora
// (the same graph family TestGoldenGrammars pins in internal/core),
// compressed with default options — each also as a "-mr" twin, the
// same archive with header version 2 (written by builds with the
// removed max-repeat mode, still read as an alias of version 1).
func sweepCorpora(t testing.TB) map[string][]byte {
	t.Helper()
	type corpus struct {
		g      *hypergraph.Graph
		labels hypergraph.Label
	}
	graphs := map[string]corpus{}
	chain := hypergraph.New(65)
	for i := 1; i <= 64; i++ {
		chain.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	graphs["chain64"] = corpus{chain, 2}
	star := hypergraph.New(129)
	for i := 1; i <= 128; i++ {
		star.AddEdge(1, hypergraph.NodeID(i), 129)
	}
	graphs["star128"] = corpus{star, 1}
	graphs["circles32"] = corpus{gen.CircleCopies(32), 1}
	for _, name := range []string{"ca-grqc", "rdf-types-ru", "dblp60-70"} {
		d, err := gen.Generate(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = corpus{d.Graph, d.Labels}
	}

	out := map[string][]byte{}
	for name, c := range graphs {
		res, err := core.Compress(c.g, c.labels, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf, _, err := Encode(res.Grammar)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf

		// Every sweep also hits the legacy header; in particular,
		// flips of the version byte must classify as corrupt.
		v2 := bytes.Clone(buf)
		v2[4] = legacyVersion
		out[name+"-mr"] = v2
	}
	return out
}

// decodeCorrupt runs one corrupted input through the governed decoder
// and asserts the robustness contract: no panic, errors classified
// under the govern taxonomy, and — when the corruption happens to
// still parse — a derivation that stays inside the size guard.
func decodeCorrupt(t *testing.T, b []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decode panicked on %s: %v", what, r)
		}
	}()
	gram, err := DecodeContext(context.Background(), b,
		govern.Limits{MaxAllocBytes: sweepAllocBudget})
	if err != nil {
		if !errors.Is(err, govern.ErrCorrupt) && !errors.Is(err, govern.ErrLimit) {
			t.Fatalf("%s: error outside the taxonomy: %v", what, err)
		}
		return
	}
	// Parsed by luck: derivation must still be governable.
	if _, derr := gram.DeriveContext(context.Background(),
		govern.Limits{MaxNodes: 1 << 20, MaxEdges: 1 << 20}); derr != nil {
		if !errors.Is(derr, govern.ErrCorrupt) && !errors.Is(derr, govern.ErrLimit) {
			t.Fatalf("%s: derive error outside the taxonomy: %v", what, derr)
		}
	}
}

// TestCorruptionSweep is the systematic counterpart of
// TestDecodeNeverPanics: over every golden-corpus encoding it flips a
// bit in every byte (rotating which bit, so all eight positions are
// exercised across the file; set SWEEP_EXHAUSTIVE=1 to flip every bit
// of every byte), truncates at every byte boundary, and appends a 1KB
// garbage suffix, asserting the decoder never panics and classifies
// every rejection under the error taxonomy.
func TestCorruptionSweep(t *testing.T) {
	exhaustive := os.Getenv("SWEEP_EXHAUSTIVE") != ""
	for name, buf := range sweepCorpora(t) {
		t.Run(name, func(t *testing.T) {
			scratch := make([]byte, len(buf))
			for i := 0; i < len(buf); i++ {
				lo, hi := i%8, i%8+1
				if exhaustive {
					lo, hi = 0, 8
				}
				for bit := lo; bit < hi; bit++ {
					copy(scratch, buf)
					scratch[i] ^= 1 << uint(bit)
					decodeCorrupt(t, scratch, fmt.Sprintf("bit flip %d.%d", i, bit))
				}
			}
			for n := 0; n < len(buf); n++ {
				decodeCorrupt(t, buf[:n], fmt.Sprintf("truncation to %d", n))
			}
			rng := rand.New(rand.NewSource(int64(len(buf))))
			garbage := make([]byte, 1024)
			rng.Read(garbage)
			suffixed := append(append([]byte(nil), buf...), garbage...)
			decodeCorrupt(t, suffixed, "1KB garbage suffix")
		})
	}
}

// TestDecodeNeverPanics is randomized failure injection for the
// decoder: random bit flips, truncations and window scrambles must
// yield an error or a valid grammar, never a panic — a corrupted file
// must not crash a reader process.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := hypergraph.New(30)
	for i := 0; i < 80; i++ {
		u := hypergraph.NodeID(1 + rng.Intn(30))
		v := hypergraph.NodeID(1 + rng.Intn(30))
		if u != v {
			g.AddEdge(hypergraph.Label(1+rng.Intn(2)), u, v)
		}
	}
	res, err := core.Compress(g, 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := Encode(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 500; trial++ {
		b := append([]byte(nil), buf...)
		switch trial % 3 {
		case 0: // single bit flip
			i := rng.Intn(len(b))
			b[i] ^= 1 << uint(rng.Intn(8))
			decodeCorrupt(t, b, "bit flip")
		case 1: // truncation
			decodeCorrupt(t, b[:rng.Intn(len(b))], "truncation")
		case 2: // byte scramble in a window
			i := rng.Intn(len(b))
			j := i + 1 + rng.Intn(8)
			if j > len(b) {
				j = len(b)
			}
			rng.Read(b[i:j])
			decodeCorrupt(t, b, "scramble")
		}
	}
}
