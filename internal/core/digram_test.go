package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphrepair/internal/hypergraph"
)

// canonTest is the test-side convenience wrapper over the scratch-based
// canonicalizeInto.
func canonTest(g *hypergraph.Graph, e1, e2 hypergraph.EdgeID) *canonOcc {
	var a, b canonOcc
	return canonicalizeInto(g, e1, e2, &a, &b)
}

// randomAdjacentPair builds a random graph and returns a pair of edges
// sharing at least one node (or ok=false).
func randomAdjacentPair(rng *rand.Rand) (*hypergraph.Graph, hypergraph.EdgeID, hypergraph.EdgeID, bool) {
	n := 3 + rng.Intn(10)
	g := hypergraph.New(n)
	for i := 0; i < 3*n; i++ {
		u := hypergraph.NodeID(1 + rng.Intn(n))
		v := hypergraph.NodeID(1 + rng.Intn(n))
		if u != v {
			g.AddEdge(hypergraph.Label(1+rng.Intn(3)), u, v)
		}
	}
	edges := slices.Collect(g.EdgesSeq())
	for try := 0; try < 50; try++ {
		if len(edges) < 2 {
			return nil, 0, 0, false
		}
		e1 := edges[rng.Intn(len(edges))]
		e2 := edges[rng.Intn(len(edges))]
		if e1 == e2 {
			continue
		}
		shared := false
		for _, a := range g.Att(e1) {
			for _, b := range g.Att(e2) {
				if a == b {
					shared = true
				}
			}
		}
		if shared {
			return g, e1, e2, true
		}
	}
	return nil, 0, 0, false
}

// Property: the canonical form is symmetric in its arguments — both
// argument orders produce the same digram key, the same external set
// and the same attachment order.
func TestCanonicalizeSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, e1, e2, ok := randomAdjacentPair(rng)
		if !ok {
			return true
		}
		a := canonTest(g, e1, e2)
		an := a.appendAttachment(nil)
		b := canonTest(g, e2, e1)
		bn := b.appendAttachment(nil)
		if a.key != b.key {
			return false
		}
		if len(an) != len(bn) {
			return false
		}
		for i := range an {
			if an[i] != bn[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: deriveFlippedInto produces exactly what buildOrientedInto
// would for the reversed argument order — the label-tie fast path is
// an identity-preserving shortcut, not an approximation.
func TestDeriveFlippedMatchesBuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, e1, e2, ok := randomAdjacentPair(rng)
		if !ok {
			return true
		}
		var fwd, flipped, direct canonOcc
		buildOrientedInto(g, e1, e2, &fwd)
		deriveFlippedInto(g, &fwd, &flipped)
		buildOrientedInto(g, e2, e1, &direct)
		if flipped.key != direct.key {
			return false
		}
		if len(flipped.locals) != len(direct.locals) {
			return false
		}
		for i := range flipped.locals {
			if flipped.locals[i] != direct.locals[i] {
				return false
			}
		}
		if len(flipped.shared) != len(direct.shared) {
			return false
		}
		for i := range flipped.shared {
			if flipped.shared[i] != direct.shared[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: attachment and removal nodes partition the occurrence's
// node set, externality matches Def. 3(3), and the rule graph built
// from the occurrence has ascending external IDs and the digram's
// rank.
func TestCanonicalOccurrenceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, e1, e2, ok := randomAdjacentPair(rng)
		if !ok {
			return true
		}
		co := canonTest(g, e1, e2)
		att := co.appendAttachment(nil)
		rem := co.appendRemoval(nil)
		if len(att)+len(rem) != len(co.locals) {
			return false
		}
		// Externality: att nodes have other incident edges; removal
		// nodes are covered entirely by the pair.
		inPair := func(v hypergraph.NodeID) int {
			c := 0
			if g.AttPos(e1, v) >= 0 {
				c++
			}
			if g.AttPos(e2, v) >= 0 {
				c++
			}
			return c
		}
		for _, v := range att {
			if g.Degree(v) <= inPair(v) {
				return false
			}
		}
		for _, v := range rem {
			if g.Degree(v) != inPair(v) {
				return false
			}
		}
		if co.rank() < 1 || co.rank() > 4 {
			return true // ruleGraph only invoked for admissible ranks
		}
		var rb ruleGraphBuilder
		rhs := rb.build(g, co)
		if rhs.Rank() != co.rank() || rhs.NumEdges() != 2 {
			return false
		}
		prev := hypergraph.NodeID(0)
		for _, x := range rhs.Ext() {
			if x <= prev {
				return false // encoder requires ascending externals
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: equal keys imply isomorphic rule graphs — the key fully
// determines the digram (two occurrences with the same key are
// occurrences of the same digram, Def. 3).
func TestKeyDeterminesRuleGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	byKey := map[digramKey]*hypergraph.Graph{}
	for trial := 0; trial < 400; trial++ {
		g, e1, e2, ok := randomAdjacentPair(rng)
		if !ok {
			continue
		}
		co := canonTest(g, e1, e2)
		var rb ruleGraphBuilder
		rhs := rb.build(g, co)
		if prev, seen := byKey[co.key]; seen {
			if !hypergraph.EqualHyper(prev, rhs) {
				t.Fatalf("same key, different rule graphs")
			}
		} else {
			byKey[co.key] = rhs
		}
	}
	if len(byKey) < 5 {
		t.Fatal("test generated too few distinct digrams to be meaningful")
	}
}

func TestEffLabelGrouping(t *testing.T) {
	g := hypergraph.New(4)
	g.AddEdge(1, 1, 2) // at node 2: (1, pos1)
	g.AddEdge(1, 3, 2) // at node 2: (1, pos1)
	g.AddEdge(1, 2, 4) // at node 2: (1, pos0)
	g.AddEdge(2, 2, 3) // at node 2: (2, pos0)
	c := &compressor{g: g}
	c.groupIncident(2)
	groups := len(c.groupStart) - 1
	if groups != 3 {
		t.Fatalf("groups = %d, want 3", groups)
	}
	if len(c.incBuf) != 4 {
		t.Fatalf("grouped %d edges, want 4", len(c.incBuf))
	}
	// Group keys are sorted ascending with incidence order preserved
	// inside each group.
	for i := 1; i < len(c.incBuf); i++ {
		a, b := c.incBuf[i-1], c.incBuf[i]
		if a.l > b.l || (a.l == b.l && a.idx >= b.idx) {
			t.Fatal("entries not sorted by (effLabel, incidence position)")
		}
	}
	for gi := 0; gi+1 < len(c.groupStart); gi++ {
		s, e := c.groupStart[gi], c.groupStart[gi+1]
		if s >= e {
			t.Fatal("empty group recorded")
		}
		for m := s; m+1 < e; m++ {
			if c.incBuf[m].l != c.incBuf[m+1].l {
				t.Fatal("group spans two effLabels")
			}
		}
	}
}
