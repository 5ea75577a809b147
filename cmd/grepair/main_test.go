package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphrepair"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/govern"
	"graphrepair/internal/graphio"
	"graphrepair/internal/hypergraph"
)

// writeTestGraph writes a small repetitive graph in the text format.
func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	g := hypergraph.New(13)
	for i := 0; i < 6; i++ {
		g.AddEdge(1, hypergraph.NodeID(2*i+1), hypergraph.NodeID(2*i+2))
		g.AddEdge(2, hypergraph.NodeID(2*i+2), hypergraph.NodeID(2*i+3))
	}
	path := filepath.Join(dir, "in.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graphio.Write(f, g, 2); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBombFile writes a ≤1KB grammar file deriving 2^levels edges.
func writeBombFile(t *testing.T, dir string, levels int) string {
	t.Helper()
	g := &graphrepair.Grammar{Terminals: 1}
	prev := graphrepair.Label(1)
	for i := 0; i < levels; i++ {
		rhs := graphrepair.NewGraph(3)
		rhs.AddEdge(prev, 1, 3)
		rhs.AddEdge(prev, 3, 2)
		rhs.SetExt(1, 2)
		prev = g.AddRule(rhs)
	}
	start := graphrepair.NewGraph(2)
	start.AddEdge(prev, 1, 2)
	g.Start = start
	buf, _, err := graphrepair.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bomb.grpr")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func compressOpts(out string) options {
	return options{compress: true, out: out, maxRank: 4, orderName: "fp"}
}

func TestCompressDecompressRoundtripCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	grpr := filepath.Join(dir, "out.grpr")
	if err := run(in, compressOpts(grpr)); err != nil {
		t.Fatalf("compress: %v", err)
	}
	if fi, err := os.Stat(grpr); err != nil || fi.Size() == 0 {
		t.Fatalf("no output written: %v", err)
	}
	outGraph := filepath.Join(dir, "out.graph")
	if err := run(grpr, options{decompress: true, out: outGraph}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	f, err := os.Open(outGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, labels, _, err := graphio.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 2 || g.NumNodes() != 13 || g.NumEdges() != 12 {
		t.Fatalf("roundtrip graph: %d labels, %d nodes, %d edges", labels, g.NumNodes(), g.NumEdges())
	}
}

func TestStatsCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	grpr := filepath.Join(dir, "out.grpr")
	if err := run(in, compressOpts(grpr)); err != nil {
		t.Fatal(err)
	}
	statsOut := filepath.Join(dir, "stats.txt")
	if err := run(grpr, options{stats: true, out: statsOut}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rules:", "derived graph:", "bits per edge:"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("stats output missing %q:\n%s", want, data)
		}
	}
}

func TestBadOrderNameCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	o := compressOpts(filepath.Join(dir, "x"))
	o.orderName = "bogus"
	if err := run(in, o); err == nil {
		t.Fatal("bogus order accepted")
	}
}

func TestAllOrderNamesWork(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	for name := range orderNames {
		o := compressOpts(filepath.Join(dir, name+".grpr"))
		o.orderName = name
		o.seed = 1
		if err := run(in, o); err != nil {
			t.Fatalf("order %s: %v", name, err)
		}
	}
}

// TestMaxEdgesRejectsBombCLI pins the operational story of the
// governance layer: a 1KB bomb file deriving 2^31 edges dies at the
// -max-edges gate, analytically, instead of exhausting memory.
func TestMaxEdgesRejectsBombCLI(t *testing.T) {
	dir := t.TempDir()
	bomb := writeBombFile(t, dir, 31)
	o := options{decompress: true, out: filepath.Join(dir, "out.graph"), maxEdges: 1_000_000}
	err := run(bomb, o)
	if !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("decompressing bomb with -max-edges = %v, want ErrLimit", err)
	}
	o = options{decompress: true, out: filepath.Join(dir, "out2.graph"), maxNodes: 1_000}
	if err := run(bomb, o); !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("decompressing bomb with -max-nodes = %v, want ErrLimit", err)
	}
	// -stats never materializes, so it works on the bomb regardless.
	if err := run(bomb, options{stats: true, out: filepath.Join(dir, "stats.txt")}); err != nil {
		t.Fatalf("stats on bomb: %v", err)
	}
}

// TestTimeoutCLI pins that -timeout surfaces as a canceled error.
func TestTimeoutCLI(t *testing.T) {
	dir := t.TempDir()
	bomb := writeBombFile(t, dir, 31)
	o := options{decompress: true, out: filepath.Join(dir, "out.graph"), timeout: time.Nanosecond}
	if err := run(bomb, o); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("run with 1ns -timeout = %v, want ErrCanceled", err)
	}
}

// TestCompressTimeoutCLI pins that -timeout cancels the compress path
// too, sequential and sharded alike: all workers stop, the run
// surfaces govern.ErrCanceled, and no partial output file appears (the
// output is created lazily, only after compression succeeded).
func TestCompressTimeoutCLI(t *testing.T) {
	dir := t.TempDir()
	d, err := gen.Generate("dblp60-70", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "big.graph")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, d.Graph, d.Labels); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, workers := range []int{0, 4} {
		out := filepath.Join(dir, "out.grpr")
		o := compressOpts(out)
		o.workers = workers
		o.timeout = time.Millisecond
		if err := run(in, o); !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("workers=%d: compress with 1ms -timeout = %v, want ErrCanceled", workers, err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("workers=%d: timed-out compress left an output file (stat err %v)", workers, err)
		}
	}
}

// TestWorkersCLI runs the sharded mode end to end through the CLI and
// checks the grammar file decompresses back to the input shape.
func TestWorkersCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	grpr := filepath.Join(dir, "out.grpr")
	o := compressOpts(grpr)
	o.workers = 4
	if err := run(in, o); err != nil {
		t.Fatalf("compress -workers 4: %v", err)
	}
	outGraph := filepath.Join(dir, "out.graph")
	if err := run(grpr, options{decompress: true, out: outGraph}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	f, err := os.Open(outGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, labels, _, err := graphio.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 2 || g.NumNodes() != 13 || g.NumEdges() != 12 {
		t.Fatalf("roundtrip graph: %d labels, %d nodes, %d edges", labels, g.NumNodes(), g.NumEdges())
	}
}

// TestSealCLI pins the seal workflow end to end: -c -seal writes a
// sealed archive whose embedded payload is byte-identical to the
// unsealed -c output; -stats and -d accept sealed and unsealed files
// alike with identical results; standalone -seal wraps an existing
// legacy archive; a corrupted sealed file is refused with ErrCorrupt.
func TestSealCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)

	plain := filepath.Join(dir, "plain.grpr")
	if err := run(in, compressOpts(plain)); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, "sealed.grpr")
	o := compressOpts(sealed)
	o.seal = true
	if err := run(in, o); err != nil {
		t.Fatal(err)
	}

	plainBuf, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	sealedBuf, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !encoding.IsSealed(sealedBuf) || encoding.IsSealed(plainBuf) {
		t.Fatal("seal flag did not control the container")
	}
	payload, err := encoding.Unseal(sealedBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, plainBuf) {
		t.Fatal("sealed payload differs from the unsealed archive (encoded bytes moved)")
	}

	// -d on sealed and unsealed produce identical text graphs.
	outPlain := filepath.Join(dir, "plain.graph")
	outSealed := filepath.Join(dir, "sealed.graph")
	if err := run(plain, options{decompress: true, out: outPlain}); err != nil {
		t.Fatal(err)
	}
	if err := run(sealed, options{decompress: true, out: outSealed}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(outPlain)
	b, _ := os.ReadFile(outSealed)
	if !bytes.Equal(a, b) {
		t.Fatal("decompressing sealed vs unsealed differs")
	}
	statsOut := filepath.Join(dir, "s.txt")
	if err := run(sealed, options{stats: true, out: statsOut}); err != nil {
		t.Fatalf("stats on sealed: %v", err)
	}
	// -stats reports the file as stored, container included.
	if st, _ := os.ReadFile(statsOut); !bytes.Contains(st, []byte(fmt.Sprintf("file bytes:      %d\n", len(sealedBuf)))) {
		t.Fatalf("stats on sealed does not report the %d stored bytes:\n%s", len(sealedBuf), st)
	}

	// Standalone -seal wraps an existing legacy archive identically.
	wrapped := filepath.Join(dir, "wrapped.grpr")
	if err := run(plain, options{seal: true, out: wrapped}); err != nil {
		t.Fatalf("standalone seal: %v", err)
	}
	wrappedBuf, err := os.ReadFile(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrappedBuf, sealedBuf) {
		t.Fatal("standalone seal differs from -c -seal output")
	}
	// Sealing twice is refused.
	if err := run(wrapped, options{seal: true, out: filepath.Join(dir, "x.grpr")}); err == nil {
		t.Fatal("double seal accepted")
	}

	// One flipped byte anywhere in the sealed file is ErrCorrupt.
	rotted := append([]byte(nil), sealedBuf...)
	rotted[len(rotted)/3] ^= 0x10
	bad := filepath.Join(dir, "rot.grpr")
	if err := os.WriteFile(bad, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, options{decompress: true, out: filepath.Join(dir, "rot.graph")}); !errors.Is(err, govern.ErrCorrupt) {
		t.Fatalf("decompress of bit-rotted sealed file = %v, want ErrCorrupt", err)
	}
}
