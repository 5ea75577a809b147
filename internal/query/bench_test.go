package query

import (
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// benchEngine compiles a fixed random graph into an engine, shared by
// the serving benchmarks.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 120, 360, 3)
	res, err := core.Compress(g, 3, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkConcurrentQueries measures the query phase under RunParallel
// on one shared engine — the pattern the compile/query split exists
// for, rotating reachability, neighborhood and distance queries.
func BenchmarkConcurrentQueries(b *testing.B) {
	e := benchEngine(b)
	n := e.NumNodes()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(13))
		i := 0
		for pb.Next() {
			u := 1 + rng.Int63n(n)
			v := 1 + rng.Int63n(n)
			var err error
			switch i % 3 {
			case 0:
				_, err = e.Reachable(u, v)
			case 1:
				_, err = e.Neighbors(u, Both)
			default:
				_, err = e.Distance(u, v)
			}
			if err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkPairQueries measures the compile phase and warm
// engine-direct (s,t)-queries on one input of each (s,t)-heavy
// perfbench workload: a coauthorship graph at a quarter of ca-grqc
// (most start edges nonterminal) and the dblp60-70 version graph
// compressed on the sharded path (a deep grammar). Query pairs are
// uniform over the derived nodes, as in perfbench's replay. Distance
// also runs on reachable pairs drawn explicitly (reachablePairs; almost
// no uniform pair of the version graph is reachable) and on the
// unreachable uniform pairs, which separates the Dijkstra from the
// reachability check that answers an unreachable pair, Matches runs a
// star automaton over every terminal label on the uniform pairs, and
// Neighbors (Both) takes the first node of each pair.
func BenchmarkPairQueries(b *testing.B) {
	inputs := []struct {
		name    string
		g       *hypergraph.Graph
		workers int
	}{
		{"network", gen.Coauthorship(5242/4, 28980/4, 4, 601), 0},
		{"versions", gen.DBLPVersionGraph(11, gen.DefaultDBLPParams(601)), 4},
	}
	for _, in := range inputs {
		ls := in.g.Labels()
		opts := core.DefaultOptions()
		opts.Workers = in.workers
		res, err := core.Compress(in.g, ls[len(ls)-1], opts)
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(res.Grammar)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		pairs := make([][2]int64, 1024)
		var unreachable [][2]int64
		for i := range pairs {
			pairs[i] = [2]int64{1 + rng.Int63n(e.NumNodes()), 1 + rng.Int63n(e.NumNodes())}
			ok, err := e.Reachable(pairs[i][0], pairs[i][1])
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				unreachable = append(unreachable, pairs[i])
			}
		}
		reachable := reachablePairs(b, e, rng, len(pairs))
		star := e.NewRPQ(StarNFA(ls...))
		// A served engine is built from a decoded grammar, whose start
		// graph is rebuilt from matrices in a different edge order.
		payload, _, err := encoding.Encode(res.Grammar)
		if err != nil {
			b.Fatal(err)
		}
		decoded, err := encoding.Decode(payload)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			g    *grammar.Grammar
		}{{"New", res.Grammar}, {"NewDecoded", decoded}} {
			b.Run(in.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := New(c.g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// The condensation of S′ alone, rebuilt from the skeletons
		// (into the same fields, with the same result).
		b.Run(in.name+"/condense", func(b *testing.B) {
			b.ReportAllocs()
			var tk ticker
			for b.Loop() {
				if err := e.condense(&tk, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
		reach := func(u, v int64) error { _, err := e.Reachable(u, v); return err }
		dist := func(u, v int64) error { _, err := e.Distance(u, v); return err }
		for _, q := range []struct {
			name  string
			pairs [][2]int64
			run   func(u, v int64) error
		}{
			{"Reachable", pairs, reach},
			{"Distance", pairs, dist},
			{"DistanceReachable", reachable, dist},
			{"DistanceUnreachable", unreachable, dist},
			{"MatchesStar", pairs, func(u, v int64) error { _, err := star.Matches(u, v); return err }},
			{"Neighbors", pairs, func(u, _ int64) error { _, err := e.Neighbors(u, Both); return err }},
		} {
			if len(q.pairs) == 0 {
				continue
			}
			b.Run(in.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					p := q.pairs[i%len(q.pairs)]
					if err := q.run(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		}
	}
}

// reachablePairs draws up to n pairs (u, v), u ≠ v, where v is
// reachable from u: u is uniform over the derived nodes and v uniform
// over the first nodes (at most reachCap) of a BFS from u along
// out-edges. Sources that reach nothing are rejected, and at most 8n
// sources are tried. Setup fails if no pair is found, so no Distance
// benchmark on reachable pairs is ever silently skipped.
func reachablePairs(b *testing.B, e *Engine, rng *rand.Rand, n int) [][2]int64 {
	b.Helper()
	const reachCap = 256
	var pairs [][2]int64
	seen := make(map[int64]bool)
	var queue []int64
	for try := 0; try < 8*n && len(pairs) < n; try++ {
		u := 1 + rng.Int63n(e.NumNodes())
		clear(seen)
		seen[u] = true
		queue = append(queue[:0], u)
		for head := 0; head < len(queue) && len(queue) < reachCap; head++ {
			out, err := e.Neighbors(queue[head], Out)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range out {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(queue) < 2 {
			continue
		}
		v := queue[1+rng.Intn(min(len(queue), reachCap)-1)]
		if ok, err := e.Reachable(u, v); err != nil || !ok {
			b.Fatalf("BFS target %d not reachable from %d (err %v)", v, u, err)
		}
		pairs = append(pairs, [2]int64{u, v})
	}
	if len(pairs) == 0 {
		b.Fatal("no reachable pair found")
	}
	return pairs
}
