package hypergraph_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
)

// readAnswers is what the graph's read-only queries say about one
// graph.
type readAnswers struct {
	out, in, nbs [][]hypergraph.NodeID
	reach        []bool
	comps        int
	isomorphic   bool
}

// readAll runs every read-only graph query a test harness shares
// across goroutines: neighborhoods, reachability on caller-owned
// scratch, weak components and the isomorphism oracle.
func readAll(g *hypergraph.Graph) readAnswers {
	var a readAnswers
	var rs hypergraph.ReachScratch
	n := hypergraph.NodeID(g.NumNodes())
	for v := hypergraph.NodeID(1); v <= n; v++ {
		a.out = append(a.out, g.OutNeighbors(v))
		a.in = append(a.in, g.InNeighbors(v))
		a.nbs = append(a.nbs, g.Neighbors(v))
		a.reach = append(a.reach, g.ReachableWith(&rs, v, (v*7)%n+1))
		// Yield so the readers interleave even at GOMAXPROCS=1.
		runtime.Gosched()
	}
	var cs hypergraph.Components
	a.comps = g.WeakComponentsInto(&cs)
	a.isomorphic = iso.Isomorphic(g, g)
	return a
}

// TestConcurrentGraphReads runs the read-only graph queries from
// several goroutines on one graph with removed edges, whose incidence
// chains still hold the removed edges' slots. The queries must only
// read: one that unlinked those slots in passing would write to the
// shared chains and race here under -race. Every goroutine must get
// the answers a private copy of the graph gives.
func TestConcurrentGraphReads(t *testing.T) {
	build := func() *hypergraph.Graph {
		const n = 60
		rng := rand.New(rand.NewSource(7))
		g := hypergraph.New(n)
		for i := 0; i < 4*n; i++ {
			u := hypergraph.NodeID(1 + rng.Intn(n))
			v := hypergraph.NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(hypergraph.Label(1+rng.Intn(3)), u, v)
			}
		}
		g.AddEdge(4, 1, 2, 3)
		for id := range g.EdgesSeq() {
			if id%3 == 0 {
				g.RemoveEdge(id)
			}
		}
		return g
	}
	shared := build()
	const readers = 4
	got := make([]readAnswers, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = readAll(shared)
		}()
	}
	wg.Wait()
	want := readAll(build())
	if !want.isomorphic {
		t.Fatal("graph not isomorphic to itself")
	}
	for i, a := range got {
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("reader %d: answers differ from a private copy's", i)
		}
	}
}
