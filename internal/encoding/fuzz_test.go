package encoding

import (
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/hypergraph"
)

// fuzzSeedBuffers returns encoded grammars of a few representative
// shapes (the same family of inputs corruption_test.go mutates): a
// compressible chain, a random multi-label graph, and a star that
// produces deep rule nesting. These give the fuzzer valid format
// skeletons to mutate instead of making it rediscover the header.
func fuzzSeedBuffers(f *testing.F) [][]byte {
	f.Helper()
	var bufs [][]byte
	add := func(g *hypergraph.Graph, terminals hypergraph.Label) {
		res, err := core.Compress(g, terminals, core.DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		buf, _, err := Encode(res.Grammar)
		if err != nil {
			f.Fatal(err)
		}
		bufs = append(bufs, buf)
	}

	rng := rand.New(rand.NewSource(1))
	g := hypergraph.New(30)
	for i := 0; i < 80; i++ {
		u := hypergraph.NodeID(1 + rng.Intn(30))
		v := hypergraph.NodeID(1 + rng.Intn(30))
		if u != v {
			g.AddEdge(hypergraph.Label(1+rng.Intn(2)), u, v)
		}
	}
	add(g, 2)

	chain := hypergraph.New(33)
	for i := 1; i < 33; i++ {
		chain.AddEdge(hypergraph.Label(1+i%2), hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	add(chain, 2)

	star := hypergraph.New(65)
	for i := 1; i <= 64; i++ {
		star.AddEdge(1, hypergraph.NodeID(i), 65)
	}
	add(star, 1)
	return bufs
}

// FuzzDecode is the fuzzing form of TestDecodeNeverPanics: arbitrary
// bytes must either fail Decode with an error or produce a grammar
// whose (size-guarded) derivation does not panic. A corrupted or
// malicious file must never crash a reader process.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	seeds := fuzzSeedBuffers(f)
	for _, buf := range seeds {
		f.Add(buf)
		// A few pre-corrupted variants seed the interesting
		// almost-valid region directly.
		for trial := 0; trial < 4; trial++ {
			b := append([]byte(nil), buf...)
			switch trial % 3 {
			case 0:
				b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
			case 1:
				b = b[:rng.Intn(len(b))]
			case 2:
				i := rng.Intn(len(b))
				j := min(i+1+rng.Intn(8), len(b))
				rng.Read(b[i:j])
			}
			f.Add(b)
		}
	}
	// A sealed archive and one with a flipped payload byte: Decode
	// unseals before decoding, so the fuzzer reaches Unseal too.
	sealed := sealChunked(seeds[0], 16)
	f.Add(sealed)
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 0x40
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, b []byte) {
		gram, err := Decode(b)
		if err != nil {
			return // rejecting corruption is the expected outcome
		}
		// If it parsed, the grammar must at least derive (or cleanly
		// refuse to) under a size guard; validation and derivation must
		// not panic on decoder-accepted input.
		if _, derr := gram.Derive(1 << 18); derr != nil {
			return
		}
	})
}
