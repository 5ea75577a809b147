package query

import (
	"math/rand"
	"testing"

	"graphrepair/internal/core"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// bruteMatches answers an RPQ on an uncompressed graph by BFS in the
// explicit product graph.
func bruteMatches(g *hypergraph.Graph, nfa *NFA, u, v hypergraph.NodeID) bool {
	type st struct {
		n hypergraph.NodeID
		q int
	}
	src := st{u, nfa.Start}
	if u == v && nfa.Accept[nfa.Start] {
		return true
	}
	seen := map[st]bool{src: true}
	queue := []st{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x.n == v && nfa.Accept[x.q] {
			return true
		}
		for id := range g.IncidentSeqRO(x.n) {
			att := g.Att(id)
			if len(att) != 2 || att[0] != x.n {
				continue
			}
			for _, p := range nfa.Next(x.q, g.Label(id)) {
				y := st{att[1], p}
				if !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return false
}

func TestPathNFAOnChain(t *testing.T) {
	// a b a b chain; query "a then b".
	g := hypergraph.New(5)
	g.AddEdge(1, 1, 2)
	g.AddEdge(2, 2, 3)
	g.AddEdge(1, 3, 4)
	g.AddEdge(2, 4, 5)
	res, err := core.Compress(g, 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	rpq := e.NewRPQ(PathNFA(1, 2))
	derived := mustDerive(t, res.Grammar)
	for u := int64(1); u <= 5; u++ {
		for v := int64(1); v <= 5; v++ {
			got, err := rpq.Matches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMatches(derived, PathNFA(1, 2), hypergraph.NodeID(u), hypergraph.NodeID(v))
			if got != want {
				t.Fatalf("PathNFA(1,2) %d→%d: got %v want %v", u, v, got, want)
			}
		}
	}
}

func TestStarNFAEquivalentToReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 40, 90, 2)
	res, err := core.Compress(g, 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	// (1|2)* accepts every path: Matches ≡ Reachable.
	rpq := e.NewRPQ(StarNFA(1, 2))
	for q := 0; q < 300; q++ {
		u := 1 + rng.Int63n(e.NumNodes())
		v := 1 + rng.Int63n(e.NumNodes())
		got, err := rpq.Matches(u, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Reachable(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("star RPQ(%d,%d) = %v, Reachable = %v", u, v, got, want)
		}
	}
}

func TestRPQAgainstBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		n := 15 + rng.Intn(40)
		g := randomGraph(rng, n, 3*n, 3)
		res, err := core.Compress(g, 3, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(res.Grammar)
		if err != nil {
			t.Fatal(err)
		}
		derived := mustDerive(t, res.Grammar)

		// A random small NFA.
		nfa := NewNFA(2+rng.Intn(3), 0)
		for i := 0; i < 6; i++ {
			nfa.AddTransition(rng.Intn(nfa.States),
				hypergraph.Label(1+rng.Intn(3)), rng.Intn(nfa.States))
		}
		nfa.SetAccept(rng.Intn(nfa.States))
		rpq := e.NewRPQ(nfa)

		for q := 0; q < 120; q++ {
			u := 1 + rng.Int63n(e.NumNodes())
			v := 1 + rng.Int63n(e.NumNodes())
			got, err := rpq.Matches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMatches(derived, nfa, hypergraph.NodeID(u), hypergraph.NodeID(v))
			if got != want {
				t.Fatalf("trial %d: RPQ(%d,%d) = %v, want %v", trial, u, v, got, want)
			}
		}
	}
}

func TestRPQLabeledVersionGraph(t *testing.T) {
	// TTT-like labeled copies: path query 1·2 (row then column move)
	// must behave identically on every copy.
	g := hypergraph.New(9 * 8)
	for c := 0; c < 8; c++ {
		b := hypergraph.NodeID(9 * c)
		g.AddEdge(1, b+1, b+2)
		g.AddEdge(2, b+2, b+3)
		g.AddEdge(3, b+3, b+4)
		g.AddEdge(1, b+4, b+5)
		g.AddEdge(2, b+5, b+6)
	}
	res, err := core.Compress(g, 3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	rpq := e.NewRPQ(PathNFA(1, 2))
	derived := mustDerive(t, res.Grammar)
	matches := 0
	for u := int64(1); u <= e.NumNodes(); u++ {
		for v := int64(1); v <= e.NumNodes(); v++ {
			got, err := rpq.Matches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != bruteMatches(derived, PathNFA(1, 2), hypergraph.NodeID(u), hypergraph.NodeID(v)) {
				t.Fatalf("mismatch at (%d,%d)", u, v)
			}
			if got {
				matches++
			}
		}
	}
	if matches != 2*8 { // two 1·2 paths per copy
		t.Fatalf("matches = %d, want 16", matches)
	}
}

// TestNFARejectsBadTransition pins that a transition naming a state
// outside 0..States-1 panics at AddTransition, instead of being
// accepted and breaking (or, under node·Q + state product indexing,
// silently aliasing) a later Matches.
func TestNFARejectsBadTransition(t *testing.T) {
	for _, tc := range []struct{ q, p int }{{0, 5}, {5, 0}, {-1, 0}, {0, -1}, {2, 1}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddTransition(%d, 1, %d) on a 2-state NFA did not panic", tc.q, tc.p)
				}
			}()
			NewNFA(2, 0).AddTransition(tc.q, 1, tc.p)
		}()
	}
	NewNFA(2, 0).AddTransition(1, 1, 0) // in range: accepted
}

// TestRPQCycleThroughExternalNode pins the product skeleton entries
// that return to the external node they leave in another automaton
// state: the only 1·2·3 path from node 1 back to itself is a cycle
// inside one rank-1 rule, so Matches(1, 1) needs the entry
// (ext 0, state 0) → (ext 0, state 3).
func TestRPQCycleThroughExternalNode(t *testing.T) {
	rhs := hypergraph.New(3)
	rhs.AddEdge(1, 1, 2)
	rhs.AddEdge(2, 2, 3)
	rhs.AddEdge(3, 3, 1)
	rhs.SetExt(1)
	start := hypergraph.New(1)
	g := grammar.New(3, start)
	start.AddEdge(g.AddRule(rhs), 1)
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	derived := mustDerive(t, g)
	for _, nfa := range []*NFA{PathNFA(1, 2, 3), PathNFA(2, 3, 1, 2), StarNFA(1, 2, 3)} {
		rpq := e.NewRPQ(nfa)
		for u := int64(1); u <= e.NumNodes(); u++ {
			for v := int64(1); v <= e.NumNodes(); v++ {
				got, err := rpq.Matches(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteMatches(derived, nfa, hypergraph.NodeID(u), hypergraph.NodeID(v)); got != want {
					t.Fatalf("%d-state NFA: Matches(%d,%d) = %v, want %v", nfa.States, u, v, got, want)
				}
			}
		}
	}
	if ok, err := e.NewRPQ(PathNFA(1, 2, 3)).Matches(1, 1); err != nil || !ok {
		t.Fatalf("Matches(1,1) over the cycle = %v, %v; want true", ok, err)
	}
}
