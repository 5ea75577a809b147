package query

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// fuzzQueryBudget bounds what the decoder may allocate per fuzz input;
// adversarial-but-valid encodings below this line must still be served
// (or cleanly rejected), never crash the engine.
const fuzzQueryBudget = 64 << 20

// fuzzDeriveLimits bounds the derived graphs FuzzQuery materializes to
// check answers against plain BFS.
var fuzzDeriveLimits = govern.Limits{MaxNodes: 4096, MaxEdges: 1 << 16}

// FuzzQuery feeds arbitrary bytes through the decoder and, whenever
// they happen to be a valid grammar, runs the full query surface —
// engine construction, reachability, neighborhoods, distance, and a
// regular path query — under a 100ms deadline. The engine must never
// panic or hang on adversarial-but-valid grammars; Reachable must hold
// exactly when Distance finds a path, and exactly when Matches does
// under a star over every terminal label; and when val(G) is small
// enough to derive, Reachable and Distance must equal BFS on it.
// Reachable and Distance share one search for every pair that is not
// two start nodes, so the first check pins that both read its answer
// alike; Matches runs its own one-way Dijkstra with no condensation
// bound, so the star check compares two independent implementations.
func FuzzQuery(f *testing.F) {
	chain := hypergraph.New(33)
	for i := 1; i <= 32; i++ {
		chain.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	star := hypergraph.New(17)
	for i := 2; i <= 17; i++ {
		star.AddEdge(2, 1, hypergraph.NodeID(i))
	}
	rng := rand.New(rand.NewSource(7))
	for _, g := range []*hypergraph.Graph{
		chain,
		star,
		randomGraph(rng, 24, 60, 3),
	} {
		res, err := core.Compress(g, 3, core.DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		buf, _, err := encoding.Encode(res.Grammar)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, g := range []*grammar.Grammar{reenterGrammar(), chainedSCCGrammar(),
		reenterShorterGrammar(), parallelArcsGrammar(), splitKGrammar()} {
		buf, _, err := encoding.Encode(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		g, err := encoding.DecodeContext(ctx, data, govern.Limits{MaxAllocBytes: fuzzQueryBudget})
		if err != nil {
			t.Skip()
		}
		e, err := NewContext(ctx, g)
		if err != nil {
			t.Skip()
		}
		n := e.NumNodes()
		if n < 1 {
			t.Skip()
		}
		u, v := int64(1), n
		var derived *hypergraph.Graph
		if n <= fuzzDeriveLimits.MaxNodes && e.NumEdges() <= fuzzDeriveLimits.MaxEdges {
			if derived, err = g.DeriveContext(ctx, fuzzDeriveLimits); err != nil && ctx.Err() == nil {
				t.Fatalf("Derive within limits: %v", err)
			}
		}
		for _, p := range [][2]int64{{u, v}, {v, u}} {
			checkFuzzPair(ctx, t, e, derived, p[0], p[1])
		}
		if _, err := e.NeighborsContext(ctx, u, Both); err != nil && ctx.Err() == nil {
			t.Fatalf("Neighbors on valid grammar: %v", err)
		}
		rpq, err := e.NewRPQContext(ctx, StarNFA(1, 2))
		if err == nil {
			if _, err := rpq.MatchesContext(ctx, u, v); err != nil && ctx.Err() == nil {
				t.Fatalf("RPQ on valid grammar: %v", err)
			}
		} else if ctx.Err() == nil {
			t.Fatalf("NewRPQ on valid grammar: %v", err)
		}
		// A star over every terminal label accepts every path, so
		// Matches must equal Reachable.
		star, err := e.NewRPQContext(ctx, StarNFA(terminalLabels(g)...))
		if err != nil {
			if ctx.Err() == nil {
				t.Fatalf("NewRPQ on valid grammar: %v", err)
			}
			return
		}
		for _, p := range [][2]int64{{u, v}, {v, u}} {
			m, err := star.MatchesContext(ctx, p[0], p[1])
			if err != nil {
				if ctx.Err() == nil {
					t.Fatalf("RPQ on valid grammar: %v", err)
				}
				return
			}
			reach, err := e.ReachableContext(ctx, p[0], p[1])
			if err == nil && m != reach {
				t.Fatalf("star RPQ(%d,%d) = %v, Reachable = %v", p[0], p[1], m, reach)
			}
		}
	})
}

// terminalLabels returns the distinct terminal labels on the edges of
// g's start graph and right-hand sides.
func terminalLabels(g *grammar.Grammar) []hypergraph.Label {
	seen := map[hypergraph.Label]bool{}
	var out []hypergraph.Label
	graphs := []*hypergraph.Graph{g.Start}
	for _, nt := range g.Nonterminals() {
		graphs = append(graphs, g.Rule(nt))
	}
	for _, h := range graphs {
		for id := range h.EdgesSeq() {
			if l := h.Label(id); g.IsTerminal(l) && !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// checkFuzzPair asserts Reachable(u,v) ⇔ Distance(u,v) finds a path
// and, when derived is non-nil, that both equal BFS on it. Answers cut
// short by the fuzz deadline are not checked.
func checkFuzzPair(ctx context.Context, t *testing.T, e *Engine, derived *hypergraph.Graph, u, v int64) {
	t.Helper()
	reach, err := e.ReachableContext(ctx, u, v)
	if err != nil {
		if ctx.Err() == nil {
			t.Fatalf("Reachable(%d,%d) on valid grammar: %v", u, v, err)
		}
		return
	}
	d, err := e.DistanceContext(ctx, u, v)
	switch {
	case err != nil && ctx.Err() != nil:
		return
	case errors.Is(err, govern.ErrLimit):
		if !reach {
			t.Fatalf("Distance(%d,%d) saturated but Reachable is false", u, v)
		}
		return
	case err != nil:
		t.Fatalf("Distance(%d,%d) on valid grammar: %v", u, v, err)
	}
	if reach != (d != Unreachable) {
		t.Fatalf("Reachable(%d,%d) = %v but Distance = %d", u, v, reach, d)
	}
	if derived == nil {
		return
	}
	var rs hypergraph.ReachScratch
	if want := derived.ReachableWith(&rs, hypergraph.NodeID(u), hypergraph.NodeID(v)); reach != want {
		t.Fatalf("Reachable(%d,%d) = %v, derived BFS says %v", u, v, reach, want)
	}
	if want := bruteDistance(derived, hypergraph.NodeID(u), hypergraph.NodeID(v)); d != want {
		t.Fatalf("Distance(%d,%d) = %d, derived BFS says %d", u, v, d, want)
	}
}
