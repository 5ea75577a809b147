package query

import (
	"math/rand"
	"testing"

	"graphrepair/internal/core"
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
