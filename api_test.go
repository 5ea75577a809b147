package graphrepair_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"graphrepair"
	"graphrepair/internal/encoding"
	"graphrepair/internal/hypergraph"
)

// TestPublicAPIRoundtrip exercises the full public surface the README
// advertises: build → compress → encode → decompress → verify → query.
func TestPublicAPIRoundtrip(t *testing.T) {
	g := graphrepair.NewGraph(9)
	for i := 0; i < 4; i++ {
		base := graphrepair.NodeID(2 * i)
		g.AddEdge(1, base+1, base+2)
		g.AddEdge(2, base+2, base+3)
	}
	res, err := graphrepair.Compress(g, 2, graphrepair.DefaultOptions())
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
	back, err := graphrepair.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphrepair.Isomorphic(g, back) {
		t.Fatal("roundtrip lost the graph")
	}

	gram, err := graphrepair.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(gram)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumNodes() != int64(g.NumNodes()) || eng.NumEdges() != int64(g.NumEdges()) {
		t.Fatal("engine sizes wrong")
	}
	// The chain is a path: first derived node reaches the last.
	ok, err := eng.Reachable(1, eng.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := eng.Reachable(eng.NumNodes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok == ok2 {
		t.Fatal("path reachability must be asymmetric")
	}
	if _, err := eng.Neighbors(1, graphrepair.Out); err != nil {
		t.Fatal(err)
	}
	if c := eng.ComponentCount(); c != 1 {
		t.Fatalf("components = %d", c)
	}
}

func TestPublicAPIRegularPathQuery(t *testing.T) {
	g := graphrepair.NewGraph(3)
	g.AddEdge(1, 1, 2)
	g.AddEdge(2, 2, 3)
	res, err := graphrepair.Compress(g, 2, graphrepair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	rpq := eng.NewRPQ(graphrepair.PathNFA(1, 2))
	// Exactly one pair matches "a then b" on this 2-edge path, and
	// the derived graph is the identity copy here (no rules).
	matches := 0
	for u := int64(1); u <= 3; u++ {
		for v := int64(1); v <= 3; v++ {
			ok, err := rpq.Matches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				matches++
			}
		}
	}
	if matches != 1 {
		t.Fatalf("matches = %d, want 1", matches)
	}
}

func TestFPClassesExposed(t *testing.T) {
	g := graphrepair.NewGraph(6)
	for i := 1; i <= 6; i++ {
		g.AddEdge(1, graphrepair.NodeID(i), graphrepair.NodeID(i%6+1))
	}
	if c := graphrepair.FPClasses(g); c != 1 {
		t.Fatalf("cycle classes = %d, want 1", c)
	}
}

func TestFromTriplesExposed(t *testing.T) {
	g, skipped := graphrepair.FromTriples(3, []graphrepair.Triple{
		{Src: 1, Dst: 2, Label: 1}, {Src: 1, Dst: 1, Label: 1},
	})
	if skipped != 1 || g.NumEdges() != 1 {
		t.Fatal("FromTriples misbehaved")
	}
}

// TestFacadeReadsSealedArchive pins that the library reads what
// `grepair -seal` writes: Decode, DecodeContext and Decompress give
// the same grammar and the same graph on a sealed archive as on its
// plain payload, and a sealed archive with one flipped payload byte
// is refused as corrupt by all three.
func TestFacadeReadsSealedArchive(t *testing.T) {
	g := graphrepair.NewGraph(33)
	for i := 1; i < 33; i++ {
		g.AddEdge(graphrepair.Label(1+i%2), graphrepair.NodeID(i), graphrepair.NodeID(i+1))
	}
	res, err := graphrepair.Compress(g, 2, graphrepair.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := graphrepair.Encode(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	sealed := encoding.Seal(plain)
	ctx := context.Background()
	readers := []struct {
		name string
		read func([]byte) (*graphrepair.Grammar, error)
	}{
		{"Decode", graphrepair.Decode},
		{"DecodeContext", func(b []byte) (*graphrepair.Grammar, error) {
			return graphrepair.DecodeContext(ctx, b, graphrepair.Limits{})
		}},
	}
	for _, r := range readers {
		want, err := r.read(plain)
		if err != nil {
			t.Fatalf("%s(plain): %v", r.name, err)
		}
		got, err := r.read(sealed)
		if err != nil {
			t.Fatalf("%s(sealed): %v", r.name, err)
		}
		wantBuf, _, err := graphrepair.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		gotBuf, _, err := graphrepair.Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBuf, wantBuf) {
			t.Fatalf("%s: sealed archive decodes to another grammar", r.name)
		}
	}
	want, err := graphrepair.Decompress(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := graphrepair.Decompress(sealed)
	if err != nil {
		t.Fatalf("Decompress(sealed): %v", err)
	}
	if !hypergraph.EqualHyper(got, want) {
		t.Fatal("Decompress: sealed archive derives another graph")
	}

	rotted := append([]byte(nil), sealed...)
	rotted[len(rotted)-1] ^= 0x40
	for _, r := range readers {
		if _, err := r.read(rotted); !errors.Is(err, graphrepair.ErrCorrupt) {
			t.Fatalf("%s(rotted) = %v, want ErrCorrupt", r.name, err)
		}
	}
	if _, err := graphrepair.Decompress(rotted); !errors.Is(err, graphrepair.ErrCorrupt) {
		t.Fatalf("Decompress(rotted) = %v, want ErrCorrupt", err)
	}
}
