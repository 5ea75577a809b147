package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphrepair/internal/govern"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

func compressedFile(t *testing.T) string {
	t.Helper()
	g := hypergraph.New(9)
	for i := 1; i < 9; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	res, err := core.Compress(g, 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := encoding.Encode(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.grpr")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBombArchive writes a ≤1KB grammar file deriving 2^levels edges
// (each rule doubles the previous label's expansion).
func writeBombArchive(t *testing.T, levels int) string {
	t.Helper()
	g := grammar.New(1, nil)
	prev := hypergraph.Label(1)
	for i := 0; i < levels; i++ {
		rhs := hypergraph.New(3)
		rhs.AddEdge(prev, 1, 3)
		rhs.AddEdge(prev, 3, 2)
		rhs.SetExt(1, 2)
		prev = g.AddRule(rhs)
	}
	start := hypergraph.New(2)
	start.AddEdge(prev, 1, 2)
	g.Start = start
	buf, _, err := encoding.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bomb.grpr")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueriesCLI runs every one-shot query on a plain archive and on
// its sealed form, and checks that a sealed archive with one flipped
// payload byte is refused as corrupt.
func TestQueriesCLI(t *testing.T) {
	path := compressedFile(t)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sealed := encoding.Seal(buf)
	sealedPath := path + ".sealed"
	if err := os.WriteFile(sealedPath, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, sealedPath} {
		for _, tc := range []struct {
			q        string
			from, to int64
		}{
			{"reach", 1, 9},
			{"out", 1, 0},
			{"in", 9, 0},
			{"components", 0, 0},
			{"degrees", 0, 0},
		} {
			if err := run(p, tc.q, tc.from, tc.to, 0, govern.Limits{}); err != nil {
				t.Fatalf("%s: query %s: %v", filepath.Base(p), tc.q, err)
			}
		}
	}
	sealed[len(sealed)-1] ^= 0x40
	rotted := path + ".rotted"
	if err := os.WriteFile(rotted, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(rotted, "components", 0, 0, 0, govern.Limits{}); !errors.Is(err, govern.ErrCorrupt) {
		t.Fatalf("bit-rotted sealed archive = %v, want ErrCorrupt", err)
	}
	if err := run(path, "bogus", 0, 0, 0, govern.Limits{}); err == nil {
		t.Fatal("bogus query accepted")
	}
	if err := run(path, "reach", 0, 99, 0, govern.Limits{}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestCorruptFileCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.grpr")
	if err := os.WriteFile(path, []byte("not a grammar"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "components", 0, 0, 0, govern.Limits{}); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

// TestBombLimitsCLI pins the one-shot bomb defense: -max-nodes /
// -max-edges reject a tiny archive deriving 2^31 edges analytically,
// before the engine is built.
func TestBombLimitsCLI(t *testing.T) {
	bomb := writeBombArchive(t, 31)
	if err := run(bomb, "components", 0, 0, 0, govern.Limits{MaxEdges: 1 << 20}); !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("bomb with -max-edges = %v, want ErrLimit", err)
	}
	if err := run(bomb, "components", 0, 0, 0, govern.Limits{MaxNodes: 1 << 20}); !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("bomb with -max-nodes = %v, want ErrLimit", err)
	}
}

// TestTimeoutCLI pins that -timeout reaches the decode/engine/query
// path and surfaces as a canceled error.
func TestTimeoutCLI(t *testing.T) {
	path := compressedFile(t)
	if err := run(path, "reach", 1, 9, time.Nanosecond, govern.Limits{}); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("run with 1ns -timeout = %v, want ErrCanceled", err)
	}
	if err := run(path, "reach", 1, 9, time.Minute, govern.Limits{}); err != nil {
		t.Fatalf("run with ample -timeout: %v", err)
	}
}
