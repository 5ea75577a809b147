package graphrepair_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"graphrepair"
)

// Example compresses the paper's Fig.-1 chain and verifies the
// roundtrip.
func Example() {
	g := graphrepair.NewGraph(9)
	for i := 0; i < 4; i++ {
		base := graphrepair.NodeID(2 * i)
		g.AddEdge(1, base+1, base+2) // a
		g.AddEdge(2, base+2, base+3) // b
	}
	res, err := graphrepair.Compress(g, 2, graphrepair.DefaultOptions())
	if err != nil {
		panic(err)
	}
	buf, _, err := graphrepair.Encode(res.Grammar)
	if err != nil {
		panic(err)
	}
	back, err := graphrepair.Decompress(buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("isomorphic:", graphrepair.Isomorphic(g, back))
	// Output: isomorphic: true
}

// ExampleEngine_Reachable runs reachability on the compressed form.
func ExampleEngine_Reachable() {
	g := graphrepair.NewGraph(5)
	for i := graphrepair.NodeID(1); i < 5; i++ {
		g.AddEdge(1, i, i+1)
	}
	res, _ := graphrepair.Compress(g, 1, graphrepair.DefaultOptions())
	eng, _ := graphrepair.NewEngine(res.Grammar)
	forward, _ := eng.Reachable(1, 5)
	backward, _ := eng.Reachable(5, 1)
	fmt.Println(forward, backward)
	// Output: true false
}

// ExampleEngine_NewRPQ answers a regular path query without
// decompressing.
func ExampleEngine_NewRPQ() {
	g := graphrepair.NewGraph(3)
	g.AddEdge(1, 1, 2) // a
	g.AddEdge(2, 2, 3) // b
	res, _ := graphrepair.Compress(g, 2, graphrepair.DefaultOptions())
	eng, _ := graphrepair.NewEngine(res.Grammar)
	rpq := eng.NewRPQ(graphrepair.PathNFA(1, 2)) // "a then b"
	ok, _ := rpq.Matches(1, 3)
	fmt.Println(ok)
	// Output: true
}

// ExampleEngine_Distance computes shortest paths on the grammar.
func ExampleEngine_Distance() {
	g := graphrepair.NewGraph(6)
	for i := graphrepair.NodeID(1); i < 6; i++ {
		g.AddEdge(1, i, i+1)
	}
	res, _ := graphrepair.Compress(g, 1, graphrepair.DefaultOptions())
	eng, _ := graphrepair.NewEngine(res.Grammar)
	d, _ := eng.Distance(1, 6)
	fmt.Println(d)
	// Output: 5
}

// ExampleNewEngineContext shows the serving pattern: compile one
// engine, share it across any number of goroutines, and bound each
// query with its own deadline via the *Context methods.
func ExampleNewEngineContext() {
	// A directed 9-cycle: every node reaches every other, whatever
	// node numbering the compressed form derives.
	g := graphrepair.NewGraph(9)
	for i := graphrepair.NodeID(1); i <= 9; i++ {
		g.AddEdge(1, i, i%9+1)
	}
	res, _ := graphrepair.Compress(g, 1, graphrepair.DefaultOptions())

	// Compile once: construction builds every query layer, so no
	// request runs a bottom-up pass.
	eng, err := graphrepair.NewEngineContext(context.Background(), res.Grammar)
	if err != nil {
		panic(err)
	}

	// Serve concurrently: the engine is immutable, so goroutines share
	// it without locks; each request carries its own timeout.
	var wg sync.WaitGroup
	reachable := make([]bool, 8)
	for i := range reachable {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			ok, err := eng.ReachableContext(ctx, int64(i+1), 9)
			if err == nil {
				reachable[i] = ok
			}
		}(i)
	}
	wg.Wait()

	n := 0
	for _, ok := range reachable {
		if ok {
			n++
		}
	}
	fmt.Println("nodes that reach node 9:", n)
	// Output: nodes that reach node 9: 8
}

// ExampleFPClasses shows the paper's compressibility indicator.
func ExampleFPClasses() {
	// A directed cycle: every node is structurally identical.
	g := graphrepair.NewGraph(8)
	for i := graphrepair.NodeID(1); i <= 8; i++ {
		g.AddEdge(1, i, i%8+1)
	}
	fmt.Println(graphrepair.FPClasses(g))
	// Output: 1
}

// ExampleDecompressContext rejects a decompression bomb: a grammar of
// 40 tiny rules whose derived graph would have 2^40 edges. The
// rejection is analytic — computed from rule sizes in O(|rules|),
// microseconds before a single node is materialized.
func ExampleDecompressContext() {
	// Each rule derives two copies of the previous one in series.
	bomb := &graphrepair.Grammar{Terminals: 1}
	prev := graphrepair.Label(1)
	for i := 0; i < 40; i++ {
		rhs := graphrepair.NewGraph(3)
		rhs.AddEdge(prev, 1, 3)
		rhs.AddEdge(prev, 3, 2)
		rhs.SetExt(1, 2)
		prev = bomb.AddRule(rhs)
	}
	bomb.Start = graphrepair.NewGraph(2)
	bomb.Start.AddEdge(prev, 1, 2)

	buf, _, _ := graphrepair.Encode(bomb) // well under 1KB
	_, err := graphrepair.DecompressContext(context.Background(), buf,
		graphrepair.Limits{MaxEdges: 1_000_000, MaxAllocBytes: 64 << 20})
	fmt.Println(errors.Is(err, graphrepair.ErrLimit))
	// Output: true
}
