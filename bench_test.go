// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. IV) plus the Sec.-V query algorithms, one benchmark
// per experiment, on scaled-down dataset analogs. Each compression
// benchmark reports bits-per-edge (bpe) alongside timing so the
// paper's comparisons can be read off `go test -bench`. cmd/benchall
// runs the same experiments at larger scales with full sweeps.
package graphrepair_test

import (
	"sync"
	"testing"

	"graphrepair"
	"graphrepair/internal/baseline/hn"
	"graphrepair/internal/baseline/k2"
	"graphrepair/internal/baseline/lm"
	"graphrepair/internal/bench"
	"graphrepair/internal/gen"
	"graphrepair/internal/order"
)

// benchScale keeps per-iteration work in the tens of milliseconds.
const benchScale = 64

var (
	dsCache   = map[string]*gen.Dataset{}
	dsCacheMu sync.Mutex
)

func dataset(b *testing.B, name string) *gen.Dataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if d, ok := dsCache[name]; ok {
		return d
	}
	d, err := gen.Generate(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	dsCache[name] = d
	return d
}

func reportBPE(b *testing.B, bytes, edges int) {
	b.Helper()
	b.ReportMetric(bench.BPE(bytes, edges), "bpe")
}

func grePairOpts() graphrepair.Options { return graphrepair.DefaultOptions() }

// BenchmarkTables123Stats regenerates the dataset statistics of
// Tables I–III: the |[≅FP]| column is the expensive part (the FP
// fixpoint refinement).
func BenchmarkTables123Stats(b *testing.B) {
	for _, name := range []string{"ca-grqc", "rdf-identica", "dblp60-70"} {
		d := dataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = graphrepair.FPClasses(d.Graph)
			}
		})
	}
}

// BenchmarkTable4MaxRank regenerates the Table-IV maxRank sweep on a
// network analog.
func BenchmarkTable4MaxRank(b *testing.B) {
	d := dataset(b, "ca-grqc")
	for _, mr := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "maxRank2", 4: "maxRank4", 8: "maxRank8"}[mr], func(b *testing.B) {
			var last int
			for i := 0; i < b.N; i++ {
				opts := grePairOpts()
				opts.MaxRank = mr
				n, _, err := bench.GRePairSize(d.Graph, d.Labels, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = n
			}
			reportBPE(b, last, d.Graph.NumEdges())
		})
	}
}

// BenchmarkFig10NodeOrders regenerates the Fig.-10 node-order
// comparison on a version graph (where orders matter most).
func BenchmarkFig10NodeOrders(b *testing.B) {
	d := dataset(b, "dblp60-70")
	for _, k := range order.Kinds {
		b.Run(k.String(), func(b *testing.B) {
			var last int
			for i := 0; i < b.N; i++ {
				opts := grePairOpts()
				opts.Order = order.Kind(k)
				n, _, err := bench.GRePairSize(d.Graph, d.Labels, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = n
			}
			reportBPE(b, last, d.Graph.NumEdges())
		})
	}
}

// BenchmarkFig11Correlation regenerates one Fig.-11 point: FP classes
// plus compression of the same graph.
func BenchmarkFig11Correlation(b *testing.B) {
	d := dataset(b, "rdf-types-ru")
	var last int
	for i := 0; i < b.N; i++ {
		_ = graphrepair.FPClasses(d.Graph)
		n, _, err := bench.GRePairSize(d.Graph, d.Labels, grePairOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = n
	}
	reportBPE(b, last, d.Graph.NumEdges())
}

// BenchmarkFig12Network regenerates the Fig.-12 comparison: all four
// compressors plus the HN+gRePair combination on a network analog.
func BenchmarkFig12Network(b *testing.B) {
	d := dataset(b, "ca-astroph")
	edges := d.Graph.NumEdges()
	b.Run("gRePair", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			n, _, err := bench.GRePairSize(d.Graph, d.Labels, grePairOpts())
			if err != nil {
				b.Fatal(err)
			}
			last = n
		}
		reportBPE(b, last, edges)
	})
	b.Run("k2", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, err := k2.Compress(d.Graph)
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
	b.Run("LM", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, err := lm.Compress(d.Graph, lm.DefaultChunkSize)
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
	b.Run("HN", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, _, err := hn.Compress(d.Graph, hn.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
	b.Run("HN+gRePair", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			bpe, err := bench.HNGRePairBPE(d.Graph, grePairOpts())
			if err != nil {
				b.Fatal(err)
			}
			last = bpe
		}
		b.ReportMetric(last, "bpe")
	})
}

// BenchmarkTable5RDF regenerates the Table-V RDF comparison on a
// types graph (the paper's orders-of-magnitude case).
func BenchmarkTable5RDF(b *testing.B) {
	d := dataset(b, "rdf-types-es")
	edges := d.Graph.NumEdges()
	b.Run("gRePair", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			n, _, err := bench.GRePairSize(d.Graph, d.Labels, grePairOpts())
			if err != nil {
				b.Fatal(err)
			}
			last = n
		}
		reportBPE(b, last, edges)
	})
	b.Run("k2", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, err := k2.Compress(d.Graph)
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
}

// BenchmarkTable6Versions regenerates the Table-VI version-graph
// comparison on the DBLP analog.
func BenchmarkTable6Versions(b *testing.B) {
	d := dataset(b, "dblp60-70")
	edges := d.Graph.NumEdges()
	b.Run("gRePair", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			n, _, err := bench.GRePairSize(d.Graph, d.Labels, grePairOpts())
			if err != nil {
				b.Fatal(err)
			}
			last = n
		}
		reportBPE(b, last, edges)
	})
	b.Run("k2", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, err := k2.Compress(d.Graph)
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
	b.Run("LM", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, err := lm.Compress(d.Graph, lm.DefaultChunkSize)
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
	b.Run("HN", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			c, _, err := hn.Compress(d.Graph, hn.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			last = c.SizeBytes()
		}
		reportBPE(b, last, edges)
	})
}

// BenchmarkFig13Copies regenerates the Fig.-13 identical-copies sweep:
// per-iteration compression of N circle copies; the reported bpe
// shrinks as N grows (exponential compression).
func BenchmarkFig13Copies(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(map[int]string{16: "copies16", 128: "copies128", 1024: "copies1024"}[n], func(b *testing.B) {
			g := gen.CircleCopies(n)
			b.ResetTimer()
			var last int
			for i := 0; i < b.N; i++ {
				sz, _, err := bench.GRePairSize(g, 1, grePairOpts())
				if err != nil {
					b.Fatal(err)
				}
				last = sz
			}
			reportBPE(b, last, g.NumEdges())
		})
	}
}

// BenchmarkFig14VersionOrders regenerates the Fig.-14 growth
// experiment's final point under the FP and random orders.
func BenchmarkFig14VersionOrders(b *testing.B) {
	p := gen.DefaultDBLPParams(302)
	p.AuthorsYear0 = 60
	g := gen.DBLPVersionGraph(11, p)
	for _, k := range []order.Kind{order.FP, order.Random} {
		b.Run(k.String(), func(b *testing.B) {
			var last int
			for i := 0; i < b.N; i++ {
				opts := grePairOpts()
				opts.Order = k
				opts.Seed = 7
				n, _, err := bench.GRePairSize(g, 1, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = n
			}
			reportBPE(b, last, g.NumEdges())
		})
	}
}

// BenchmarkReachability compares Sec.-V reachability on the grammar
// against BFS on the decompressed graph.
func BenchmarkReachability(b *testing.B) {
	d := dataset(b, "dblp60-70")
	res, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	derived := mustDerive(b, res.Grammar)
	n := eng.NumNodes()
	b.Run("grammar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := 1 + int64(i*131)%n
			v := 1 + int64(i*37+11)%n
			if _, err := eng.Reachable(u, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompressed", func(b *testing.B) {
		var rs graphrepair.ReachScratch
		for i := 0; i < b.N; i++ {
			u := graphrepair.NodeID(1 + int64(i*131)%n)
			v := graphrepair.NodeID(1 + int64(i*37+11)%n)
			derived.ReachableWith(&rs, u, v)
		}
	})
}

// BenchmarkNeighbors compares Prop.-4 neighborhood queries on the
// grammar against the decompressed graph.
func BenchmarkNeighbors(b *testing.B) {
	d := dataset(b, "rdf-types-ru")
	res, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	derived := mustDerive(b, res.Grammar)
	n := eng.NumNodes()
	b.Run("grammar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Neighbors(1+int64(i)%n, graphrepair.Out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			derived.OutNeighbors(graphrepair.NodeID(1 + int64(i)%n))
		}
	})
}

// BenchmarkComponentCount compares the one-pass component count on
// the grammar against union-find on the decompressed graph.
func BenchmarkComponentCount(b *testing.B) {
	d := dataset(b, "dblp60-70")
	res, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	derived := mustDerive(b, res.Grammar)
	b.Run("grammar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = eng.ComponentCount()
		}
	})
	b.Run("decompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = derived.WeakComponents()
		}
	})
}

// BenchmarkEncodeDecode measures the binary format itself.
func BenchmarkEncodeDecode(b *testing.B) {
	d := dataset(b, "ca-grqc")
	res, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts())
	if err != nil {
		b.Fatal(err)
	}
	buf, _, err := graphrepair.Encode(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := graphrepair.Encode(res.Grammar); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graphrepair.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPQ measures regular path query evaluation on the grammar
// (the future-work extension) against the explicit product BFS on the
// decompressed graph.
func BenchmarkRPQ(b *testing.B) {
	d := dataset(b, "ttt")
	res, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	rpq := eng.NewRPQ(graphrepair.PathNFA(1, 2, 3))
	n := eng.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 1 + int64(i*17)%n
		v := 1 + int64(i*43+3)%n
		if _, err := rpq.Matches(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistance measures grammar-side shortest-path queries.
func BenchmarkDistance(b *testing.B) {
	d := dataset(b, "dblp60-70")
	res, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := graphrepair.NewEngine(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	n := eng.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 1 + int64(i*131)%n
		v := 1 + int64(i*37+11)%n
		if _, err := eng.Distance(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompress measures the compressor hot path (digram counting
// and replacement) on the medium generator graphs, reporting allocs/op
// so the allocation budget of internal/core is tracked per change.
// dblp60-70/workers=2 runs the same version graph on the sharded path.
func BenchmarkCompress(b *testing.B) {
	sharded := grePairOpts()
	sharded.Workers = 2
	for _, c := range []struct {
		name, dataset string
		opts          graphrepair.Options
	}{
		{"ca-grqc", "ca-grqc", grePairOpts()},
		{"rdf-types-ru", "rdf-types-ru", grePairOpts()},
		{"dblp60-70", "dblp60-70", grePairOpts()},
		{"dblp60-70/workers=2", "dblp60-70", sharded},
	} {
		d := dataset(b, c.dataset)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graphrepair.Compress(d.Graph, d.Labels, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressThroughput reports raw compression speed on a
// mid-size network analog.
func BenchmarkCompressThroughput(b *testing.B) {
	d := dataset(b, "notredame")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphrepair.Compress(d.Graph, d.Labels, grePairOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Graph.NumEdges()), "edges")
}
