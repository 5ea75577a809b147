package core

import (
	"testing"

	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// oldEdgeKey reproduces the pre-PR-3 hypergraph.EdgeKey: the 64-bit
// FNV-1a digest of (label, attachment) the duplicate veto used to
// trust as edge identity. Kept here (only) to prove the engineered
// inputs below really collide under it.
func oldEdgeKey(label hypergraph.Label, att ...hypergraph.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(uint32(label))) * prime64
	for _, v := range att {
		h = (h ^ uint64(uint32(v))) * prime64
	}
	return h
}

// Engineered FNV collision (found by inverting the hash's final
// rounds and scanning node pairs; see DESIGN.md §8): the terminal
// edge (collLabel, collSrc → collDst) and the first nonterminal's
// edge (ntLabel, 4 → 2) have distinct (label, attachment) tuples but
// identical oldEdgeKey digests.
const (
	collTerminals = hypergraph.Label(1<<31 - 2)
	ntLabel       = collTerminals + 1 // first rule label
	collLabel     = hypergraph.Label(353606290)
	collSrc       = hypergraph.NodeID(224738)
	collDst       = hypergraph.NodeID(195849)
)

// TestDuplicateVetoExact is the regression test for the rank-2
// duplicate-veto collision bug: with the FNV-keyed edgeSet, the
// colliding terminal edge made `edgeSet[EdgeKey(nt, 4, 2)]` nonzero,
// so the replacement attaching the new nonterminal to (4, 2) was
// falsely counted as a duplicate and skipped. With an exact veto
// both occurrences of the digram are replaced.
func TestDuplicateVetoExact(t *testing.T) {
	// Prove the engineered inputs collide under the old digest and are
	// genuinely distinct edges.
	if oldEdgeKey(collLabel, collSrc, collDst) != oldEdgeKey(ntLabel, 4, 2) {
		t.Fatal("engineered inputs no longer collide under the legacy FNV key")
	}
	if collLabel == ntLabel {
		t.Fatal("engineered labels are not distinct")
	}

	// Two occurrences of the digram (5)-(7): 4 →5 m →7 2 and
	// 5 →5 m' →7 6. The chain endpoints get one extra edge each
	// (distinct labels, distinct hubs) so they are external and the
	// replacement nonterminal attaches to exactly (4, 2) and (5, 6).
	g := hypergraph.New(int(collSrc))
	m2, x1, y1, m1 := hypergraph.NodeID(3), hypergraph.NodeID(5), hypergraph.NodeID(6), hypergraph.NodeID(7)
	g.AddEdge(5, 4, m2)
	g.AddEdge(7, m2, 2)
	g.AddEdge(5, x1, m1)
	g.AddEdge(7, m1, y1)
	g.AddEdge(11, 4, 8)
	g.AddEdge(12, 2, 9)
	g.AddEdge(13, x1, 10)
	g.AddEdge(14, y1, 11)
	// The colliding live edge. It is isolated from the digram, so it
	// survives compression untouched — and under the old scheme its
	// digest alone blocked the (4, 2) replacement.
	g.AddEdge(collLabel, collSrc, collDst)

	opts := Options{MaxRank: 4, Order: order.FP}
	res, err := Compress(g, collTerminals, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SkippedDuplicates != 0 {
		t.Errorf("SkippedDuplicates = %d, want 0: the exact veto must not fire on a hash collision", st.SkippedDuplicates)
	}
	if st.Replacements != 2 {
		t.Errorf("Replacements = %d, want 2: both digram occurrences must be replaced", st.Replacements)
	}
	if st.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", st.Rounds)
	}

	// And the grammar still derives the input.
	checkRoundTrip(t, g, collTerminals, opts)
}

// TestDuplicateVetoStillFires proves the exact veto still vetoes true
// duplicates: two digram occurrences whose replacement would attach
// the nonterminal to the same (source, target) pair must produce one
// replacement and one skip, exactly as before.
func TestDuplicateVetoStillFires(t *testing.T) {
	// Two parallel chains 1 →5 m →7 2 with different middles: both
	// occurrences of digram (5)-(7) attach to (1, 2).
	g := hypergraph.New(6)
	g.AddEdge(5, 1, 3)
	g.AddEdge(7, 3, 2)
	g.AddEdge(5, 1, 4)
	g.AddEdge(7, 4, 2)
	// Keep 1 and 2 external via extra edges.
	g.AddEdge(11, 1, 5)
	g.AddEdge(12, 2, 6)

	res, err := Compress(g, 12, Options{MaxRank: 4, Order: order.FP})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Replacements != 1 || st.SkippedDuplicates != 1 {
		t.Errorf("Replacements = %d, SkippedDuplicates = %d; want exactly one true duplicate vetoed",
			st.Replacements, st.SkippedDuplicates)
	}
	checkRoundTrip(t, g, 12, Options{MaxRank: 4, Order: order.FP})
}

// TestDuplicateVetoPerLabel checks that the veto compares labels, not
// just endpoints: round 1 replaces three occurrences of digram (5)-(7),
// one of them attaching its nonterminal to (1, 2), and round 2 replaces
// two occurrences of digram (8)-(9), one of them attaching the second
// nonterminal to (1, 2) as well. The two edges differ in label, so
// neither replacement is a duplicate.
func TestDuplicateVetoPerLabel(t *testing.T) {
	g := hypergraph.New(30)
	// Three (5)-(7) paths x →5 m →7 y. Every endpoint other than 1
	// and 2 gets one extra edge of its own label, so it is external
	// and no third digram repeats.
	g.AddEdge(5, 1, 3)
	g.AddEdge(7, 3, 2)
	for i, x := range []hypergraph.NodeID{4, 7} {
		m, y := x+1, x+2
		g.AddEdge(5, x, m)
		g.AddEdge(7, m, y)
		g.AddEdge(hypergraph.Label(10+2*i), x, hypergraph.NodeID(20+2*i))
		g.AddEdge(hypergraph.Label(11+2*i), y, hypergraph.NodeID(21+2*i))
	}
	// Two (8)-(9) paths: one more between 1 and 2, and one elsewhere.
	g.AddEdge(8, 1, 10)
	g.AddEdge(9, 10, 2)
	g.AddEdge(8, 11, 12)
	g.AddEdge(9, 12, 13)
	g.AddEdge(14, 11, 24)
	g.AddEdge(15, 13, 25)

	opts := Options{MaxRank: 4, Order: order.FP}
	res, err := Compress(g, 15, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SkippedDuplicates != 0 || st.Replacements != 5 || st.Rounds != 2 {
		t.Errorf("Rounds = %d, Replacements = %d, SkippedDuplicates = %d; want 2, 5, 0",
			st.Rounds, st.Replacements, st.SkippedDuplicates)
	}
	checkRoundTrip(t, g, 15, opts)
}
