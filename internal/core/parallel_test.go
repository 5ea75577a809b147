package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
)

// workerSweep is the worker-count matrix of the determinism sweep.
// Workers=1 must be byte-identical to the sequential path (and thus to
// the golden hashes); all Workers>1 must be byte-identical to each
// other — the shard decomposition and merge are pure functions of the
// graph, the worker count only schedules them.
var workerSweep = []int{1, 2, 4, 8}

func compressEncoded(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, opts Options) (*Result, []byte) {
	t.Helper()
	res, err := Compress(g, labels, opts)
	if err != nil {
		t.Fatalf("Workers=%d: %v", opts.Workers, err)
	}
	buf, _, err := encoding.Encode(res.Grammar)
	if err != nil {
		t.Fatalf("Workers=%d: encode: %v", opts.Workers, err)
	}
	return res, buf
}

// checkWorkerSweep compresses g at every worker count and asserts the
// cross-count invariants; the Workers=2 grammar is derived and checked
// isomorphic to the input.
func checkWorkerSweep(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, opts Options) {
	t.Helper()
	opts.Workers = 0
	_, seqBuf := compressEncoded(t, g, labels, opts)

	var first *Result
	var firstBuf []byte
	for _, w := range workerSweep {
		opts.Workers = w
		res, buf := compressEncoded(t, g, labels, opts)
		switch {
		case w <= 1:
			if !bytes.Equal(buf, seqBuf) {
				t.Errorf("Workers=1 encoding differs from sequential (%d vs %d bytes)", len(buf), len(seqBuf))
			}
		case first == nil:
			first, firstBuf = res, buf
			checkShardedResult(t, g, labels, res)
		default:
			if res.Stats != first.Stats {
				t.Errorf("Workers=%d stats %+v != Workers=%d stats %+v", w, res.Stats, workerSweep[1], first.Stats)
			}
			if res.Grammar.NumRules() != first.Grammar.NumRules() {
				t.Errorf("Workers=%d has %d rules, Workers=%d has %d",
					w, res.Grammar.NumRules(), workerSweep[1], first.Grammar.NumRules())
			}
			if !bytes.Equal(buf, firstBuf) {
				t.Errorf("Workers=%d encoding differs from Workers=%d (%d vs %d bytes)",
					w, workerSweep[1], len(buf), len(firstBuf))
			}
		}
	}
}

// checkShardedResult asserts the sharded grammar means the same graph:
// its derivation is isomorphic to the input (structural fallback above
// isoNodeLimit) and the flat start remap is a valid injection from
// surviving input nodes onto the start graph.
func checkShardedResult(t *testing.T, g *hypergraph.Graph, labels hypergraph.Label, res *Result) {
	t.Helper()
	derived, err := res.Grammar.Derive(int64(g.NumNodes()) + 16)
	if err != nil {
		t.Fatalf("derive sharded grammar: %v", err)
	}
	if derived.NumNodes() != g.NumNodes() || derived.NumEdges() != g.NumEdges() {
		t.Fatalf("sharded derivation has %d nodes/%d edges, input %d/%d",
			derived.NumNodes(), derived.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if g.NumNodes() <= isoNodeLimit {
		if !iso.Isomorphic(g, derived) {
			t.Fatal("sharded derivation not isomorphic to input")
		}
	} else {
		checkStructuralEquiv(t, g, derived)
	}

	// The remap must be an injection from surviving input nodes into
	// the start graph. It need not be onto: global pruning can inline a
	// rule's internals into the start graph, and those nodes have no
	// input preimage (see mergeShardResults).
	s := res.Grammar.Start
	remap := res.StartRemap()
	seen := make(map[hypergraph.NodeID]bool, s.NumNodes())
	survivors := 0
	for orig, now := range remap {
		if now == 0 {
			continue
		}
		survivors++
		if !g.HasNode(hypergraph.NodeID(orig)) || !s.HasNode(now) || seen[now] {
			t.Fatalf("StartRemap inconsistent at input node %d -> %d", orig, now)
		}
		seen[now] = true
	}
	if survivors > s.NumNodes() || (g.NumNodes() > 0 && survivors == 0) {
		t.Fatalf("StartRemap covers %d nodes, start graph has %d", survivors, s.NumNodes())
	}
}

// TestParallelCatalogSweep sweeps Workers ∈ {1,2,4,8} across the full
// generator catalog. Run under -race in CI (GOMAXPROCS ∈ {1,4}).
func TestParallelCatalogSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("worker sweep over the catalog is seconds-per-model; skipped in -short")
	}
	for _, name := range gen.Names("") {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := gen.Generate(name, 2048)
			if err != nil {
				t.Fatal(err)
			}
			checkWorkerSweep(t, d.Graph, d.Labels, DefaultOptions())
		})
	}
}

// TestParallelMediumDatasets runs the sweep on the three perf datasets
// at bench scale, where component sharding (dblp60-70, rdf-types-ru)
// and the giant-component partition fallback (ca-grqc, 71% of edges in
// one component at full scale) both actually engage.
func TestParallelMediumDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("medium datasets are seconds each; skipped in -short")
	}
	for _, name := range []string{"ca-grqc", "rdf-types-ru", "dblp60-70"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := gen.Generate(name, 256)
			if err != nil {
				t.Fatal(err)
			}
			checkWorkerSweep(t, d.Graph, d.Labels, DefaultOptions())
		})
	}
}

// TestParallelSingleComponent forces the partition fallback: a chain
// is one weak component holding 100% of the edges, so component
// sharding cannot balance and the BFS partition must carve it.
func TestParallelSingleComponent(t *testing.T) {
	g := chainGraph(4096)
	opts := DefaultOptions()
	opts.Workers = 4
	res, err := Compress(g, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkShardedResult(t, g, 2, res)
	checkWorkerSweep(t, chainGraph(512), 2, DefaultOptions())
}

// TestParallelTinyGraphs exercises the sequential fallback inside the
// sharded path: graphs too small to split must still compress.
func TestParallelTinyGraphs(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 8

	empty := hypergraph.New(0)
	if res, err := Compress(empty, 1, opts); err != nil || res.Grammar.Start.NumNodes() != 0 {
		t.Fatalf("empty graph: res=%v err=%v", res, err)
	}

	one := hypergraph.New(1)
	if res, err := Compress(one, 1, opts); err != nil || res.Grammar.Start.NumNodes() != 1 {
		t.Fatalf("single node: res=%v err=%v", res, err)
	}

	pair := hypergraph.New(2)
	pair.AddEdge(1, 1, 2)
	res, err := Compress(pair, 1, opts)
	if err != nil || res.Grammar.Start.NumEdges() != 1 {
		t.Fatalf("single edge: res=%v err=%v", res, err)
	}
}

// TestParallelCanceled asserts a canceled context stops all shard
// workers and surfaces govern.ErrCanceled with no partial result.
func TestParallelCanceled(t *testing.T) {
	d, err := gen.Generate("dblp60-70", 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Workers = 4
	res, err := CompressContext(ctx, d.Graph, d.Labels, opts)
	if res != nil {
		t.Fatal("canceled sharded compression returned a partial result")
	}
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("want govern.ErrCanceled, got %v", err)
	}
}
