package hypergraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddRemoveBasics(t *testing.T) {
	g := New(4)
	if g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatal("bad initial counts")
	}
	e1 := g.AddEdge(1, 1, 2)
	e2 := g.AddEdge(2, 2, 3)
	e3 := g.AddEdge(3, 2, 1, 3) // hyperedge of rank 3
	if g.NumEdges() != 3 {
		t.Fatal("expected 3 edges")
	}
	if g.Degree(2) != 3 {
		t.Fatalf("deg(2) = %d, want 3", g.Degree(2))
	}
	if g.AttPos(e3, 3) != 2 || g.AttPos(e3, 4) != -1 {
		t.Fatal("AttPos wrong")
	}
	g.RemoveEdge(e2)
	if g.NumEdges() != 2 || g.Degree(2) != 2 || g.Degree(3) != 1 {
		t.Fatal("counts after removal wrong")
	}
	if g.HasEdge(e2) {
		t.Fatal("e2 should be dead")
	}
	inc := g.AppendIncident(nil, 2)
	if len(inc) != 2 || inc[0] != e1 || inc[1] != e3 {
		t.Fatalf("AppendIncident(nil, 2) = %v", inc)
	}
}

func TestRemoveNodeRules(t *testing.T) {
	g := New(3)
	e := g.AddEdge(1, 1, 2)
	mustPanic(t, func() { g.RemoveNode(1) }) // still incident
	g.RemoveEdge(e)
	g.RemoveNode(1)
	if g.HasNode(1) || g.NumNodes() != 2 {
		t.Fatal("node 1 should be gone")
	}
	g.SetExt(2)
	mustPanic(t, func() { g.RemoveNode(2) }) // external
	mustPanic(t, func() { g.AddEdge(1, 1, 2) })
}

func TestSelfLoopAndDuplicateAttachmentPanics(t *testing.T) {
	g := New(2)
	mustPanic(t, func() { g.AddEdge(1, 1, 1) })
	mustPanic(t, func() { g.SetExt(2, 2) })
}

func TestExt(t *testing.T) {
	g := New(5)
	g.SetExt(3, 1)
	if g.Rank() != 2 || !g.IsExternal(3) || g.ExtIndex(1) != 1 || g.IsExternal(2) {
		t.Fatal("ext bookkeeping wrong")
	}
	g.SetExt(2)
	if g.IsExternal(3) || !g.IsExternal(2) {
		t.Fatal("SetExt did not reset")
	}
}

func TestSizeMeasures(t *testing.T) {
	// Paper Sec. II: simple edges count 1, hyperedges their rank.
	g := New(4)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 1, 2, 3, 4)
	if g.EdgeSize() != 1+1+4 {
		t.Fatalf("EdgeSize = %d, want 6", g.EdgeSize())
	}
	if g.TotalSize() != 4+6 {
		t.Fatalf("TotalSize = %d, want 10", g.TotalSize())
	}
}

func TestAddNodeAfterConstruction(t *testing.T) {
	g := New(1)
	v := g.AddNode()
	if v != 2 || g.NumNodes() != 2 {
		t.Fatal("AddNode failed")
	}
	g.AddEdge(7, 1, v)
	if g.Degree(v) != 1 {
		t.Fatal("edge to fresh node missing")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 1, 2)
	e := g.AddEdge(1, 2, 3)
	g.RemoveEdge(e)
	g.SetExt(1, 3)
	c := g.Clone()
	if !EqualHyper(asCompactPair(g, c)) {
		t.Fatal("clone differs")
	}
	c.AddEdge(2, 1, 3)
	if g.NumEdges() != 1 {
		t.Fatal("mutation leaked to original")
	}
}

// asCompactPair normalizes edge IDs before comparison.
func asCompactPair(a, b *Graph) (*Graph, *Graph) { return a.Clone(), b.Clone() }

func TestCompact(t *testing.T) {
	g := New(5)
	e := g.AddEdge(1, 2, 4)
	g.AddEdge(2, 4, 5)
	g.RemoveEdge(e)
	// Free node 1,2,3 of edges then remove 1 and 3.
	g.RemoveNode(1)
	g.RemoveNode(3)
	g.SetExt(5)
	remap := g.Compact()
	if g.NumNodes() != 3 || g.MaxNodeID() != 3 {
		t.Fatalf("compact: %d nodes max %d", g.NumNodes(), g.MaxNodeID())
	}
	// Old nodes 2,4,5 → 1,2,3.
	if remap[2] != 1 || remap[4] != 2 || remap[5] != 3 {
		t.Fatalf("remap = %v", remap)
	}
	tr := g.Triples()
	if len(tr) != 1 || tr[0] != (Triple{Src: 2, Dst: 3, Label: 2}) {
		t.Fatalf("triples = %v", tr)
	}
	if g.ExtIndex(3) != 0 {
		t.Fatal("ext not remapped")
	}
}

func TestTriplesAndNeighbors(t *testing.T) {
	g, skipped := FromTriples(4, []Triple{
		{1, 2, 1}, {1, 2, 1}, {2, 2, 1}, {1, 3, 2}, {3, 1, 1},
	})
	if skipped != 2 { // one duplicate, one self-loop
		t.Fatalf("skipped = %d", skipped)
	}
	if got := g.OutNeighbors(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("out(1) = %v", got)
	}
	if got := g.InNeighbors(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("in(1) = %v", got)
	}
	if got := g.Neighbors(1); len(got) != 2 {
		t.Fatalf("neighbors(1) = %v", got)
	}
}

func TestWeakComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 3, 4)
	g.AddEdge(2, 4, 5, 6) // hyperedge joins 4,5,6
	comps := g.WeakComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
	if len(comps[1]) != 4 { // {3,4,5,6}
		t.Fatalf("component = %v", comps[1])
	}
	if len(comps[2]) != 1 || comps[2][0] != 7 {
		t.Fatalf("isolated node component = %v", comps[2])
	}
}

func TestReachable(t *testing.T) {
	g, _ := FromTriples(5, []Triple{{1, 2, 1}, {2, 3, 1}, {4, 3, 1}})
	cases := []struct {
		s, d NodeID
		want bool
	}{
		{1, 3, true}, {3, 1, false}, {1, 1, true}, {4, 3, true}, {1, 5, false},
	}
	for _, c := range cases {
		if got := g.Reachable(c.s, c.d); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestReachableWithMatchesAndIsAllocFree(t *testing.T) {
	g, _ := FromTriples(64, func() []Triple {
		tr := make([]Triple, 0, 80)
		for i := NodeID(1); i < 60; i++ {
			tr = append(tr, Triple{Src: i, Dst: i + 1, Label: 1})
		}
		return tr
	}())
	var rs ReachScratch
	for s := NodeID(1); s <= 64; s += 7 {
		for d := NodeID(1); d <= 64; d += 5 {
			if got, want := g.ReachableWith(&rs, s, d), g.Reachable(s, d); got != want {
				t.Fatalf("ReachableWith(%d,%d) = %v, Reachable = %v", s, d, got, want)
			}
		}
	}
	// Warm scratch: zero allocations per probe (the pre-PR-7 Reachable
	// allocated a visited table and a head-popped queue every call).
	allocs := testing.AllocsPerRun(100, func() {
		g.ReachableWith(&rs, 1, 60)
		g.ReachableWith(&rs, 60, 1)
	})
	if allocs != 0 {
		t.Fatalf("warm ReachableWith allocates %v per run, want 0", allocs)
	}
}

func TestRelabel(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 1, 2)
	e := g.AddEdge(5, 2, 3)
	g.AddEdge(9, 3, 4)
	g.RemoveEdge(e)
	g.Relabel(func(l Label) Label {
		if l > 2 {
			return l + 100
		}
		return l
	})
	tr := g.Triples()
	if len(tr) != 2 || tr[0].Label != 1 || tr[1].Label != 109 {
		t.Fatalf("triples after relabel = %v", tr)
	}
}

func TestEqualSimple(t *testing.T) {
	a, _ := FromTriples(3, []Triple{{1, 2, 1}, {2, 3, 2}})
	b, _ := FromTriples(3, []Triple{{2, 3, 2}, {1, 2, 1}})
	if !EqualSimple(a, b) {
		t.Fatal("order should not matter")
	}
	c, _ := FromTriples(3, []Triple{{1, 2, 1}, {2, 3, 3}})
	if EqualSimple(a, c) {
		t.Fatal("label change should differ")
	}
}

// Property: after any sequence of edge insertions and removals, the
// incidence lists agree with recomputing incidence from edges.
func TestIncidenceInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		var alive []EdgeID
		for step := 0; step < 200; step++ {
			if len(alive) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(alive))
				g.RemoveEdge(alive[i])
				alive = append(alive[:i], alive[i+1:]...)
				continue
			}
			u := NodeID(1 + rng.Intn(n))
			v := NodeID(1 + rng.Intn(n))
			if u == v {
				continue
			}
			alive = append(alive, g.AddEdge(Label(1+rng.Intn(3)), u, v))
		}
		// Brute-force incidence.
		want := map[NodeID]map[EdgeID]bool{}
		for id := range g.EdgesSeq() {
			for _, v := range g.Att(id) {
				if want[v] == nil {
					want[v] = map[EdgeID]bool{}
				}
				want[v][id] = true
			}
		}
		for v := NodeID(1); v <= NodeID(n); v++ {
			inc := g.AppendIncident(nil, v)
			if len(inc) != len(want[v]) {
				return false
			}
			for _, id := range inc {
				if !want[v][id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAttArenaViews pins the attachment-arena semantics: Att returns
// the exact attachment sequence, views taken before arena growth stay
// valid and correct, and appending to a returned view cannot clobber a
// neighboring edge's attachment (the view's capacity is clipped).
func TestAttArenaViews(t *testing.T) {
	g := New(6)
	e1 := g.AddEdge(1, 1, 2)
	a1 := g.Att(e1)
	// Force arena growth with more edges, including a hyperedge.
	e2 := g.AddEdge(2, 3, 4, 5)
	for i := 0; i < 100; i++ {
		g.AddEdge(3, 5, 6)
	}
	if a1[0] != 1 || a1[1] != 2 {
		t.Fatalf("pre-growth view changed: %v", a1)
	}
	if got := g.Att(e1); got[0] != 1 || got[1] != 2 || len(got) != 2 {
		t.Fatalf("Att(e1) = %v, want [1 2]", got)
	}
	if got := g.Att(e2); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("Att(e2) = %v, want [3 4 5]", got)
	}
	// Appending to a view must reallocate, not overwrite the arena.
	_ = append(g.Att(e1), 99)
	if got := g.Att(e2); got[0] != 3 {
		t.Fatalf("append through a view clobbered the arena: Att(e2) = %v", got)
	}
}

// TestEdgeReadContract pins the read contract of Graph: Label, Att and
// AttPos check no liveness, so a removed edge still reads as its last
// label and attachment, and an ID that was never allocated panics on
// the slice bound; the mutators keep their liveness check; and Att's
// view is capacity-clipped.
func TestEdgeReadContract(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 1, 2)
	e := g.AddEdge(7, 2, 3, 4)
	g.RemoveEdge(e)
	if g.HasEdge(e) {
		t.Fatal("removed edge still alive")
	}
	if got := g.Label(e); got != 7 {
		t.Errorf("Label(removed) = %d, want its last label 7", got)
	}
	if got := g.Att(e); !slices.Equal(got, []NodeID{2, 3, 4}) {
		t.Errorf("Att(removed) = %v, want its last attachment [2 3 4]", got)
	}
	if got := g.AttPos(e, 4); got != 2 {
		t.Errorf("AttPos(removed, 4) = %d, want 2", got)
	}
	if a := g.Att(e); cap(a) != len(a) {
		t.Errorf("Att view has cap %d > len %d", cap(a), len(a))
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	never := g.MaxEdgeID()
	mustPanic("Label(MaxEdgeID)", func() { g.Label(never) })
	mustPanic("Att(MaxEdgeID)", func() { g.Att(never) })
	mustPanic("AttPos(MaxEdgeID)", func() { g.AttPos(never, 1) })
	mustPanic("RemoveEdge(removed)", func() { g.RemoveEdge(e) })
}

// TestWarmAddEdgeAllocs proves AddEdge no longer allocates a per-edge
// attachment slice: the marginal allocation rate over many adds is the
// amortized slice growth only (a handful of reallocation events), not
// one-plus allocations per edge as before the arena.
func TestWarmAddEdgeAllocs(t *testing.T) {
	g := New(2)
	const n = 1024
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			g.AddEdge(1, 1, 2)
		}
	})
	// 4 growing slices (edges, edgeAlive, att, incPool) × ~10 doublings
	// each ≈ 40; the pre-arena layout allocated ≥ n.
	if allocs > n/10 {
		t.Fatalf("adding %d edges allocated %.0f times; per-edge attachment allocation is back", n, allocs)
	}

	// With reserved edge/attachment/incidence capacity AddEdge must not
	// allocate at all (incidence lives in the shared chain arena, so
	// there is no per-node doubling left to warm up).
	g2 := New(2)
	for i := 0; i < 900; i++ {
		g2.AddEdge(1, 1, 2)
	}
	g2.Reserve(200, 400)
	if allocs := testing.AllocsPerRun(50, func() {
		g2.AddEdge(1, 1, 2)
	}); allocs != 0 {
		t.Fatalf("warm AddEdge allocates %v/op, want 0", allocs)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// Property: Compact preserves the graph up to the returned node
// renumbering — triples map exactly through the remap.
func TestCompactPreservesStructureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u := NodeID(1 + rng.Intn(n))
			v := NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(Label(1+rng.Intn(2)), u, v)
			}
		}
		// Remove a few edges, then a few now-isolated nodes.
		for id := range g.EdgesSeq() {
			if rng.Intn(3) == 0 {
				g.RemoveEdge(id)
			}
		}
		for _, v := range g.Nodes() {
			if g.Degree(v) == 0 && rng.Intn(2) == 0 {
				g.RemoveNode(v)
			}
		}
		before := g.Clone()
		remap := g.Compact()
		if g.NumNodes() != before.NumNodes() || g.NumEdges() != before.NumEdges() {
			return false
		}
		if int(g.MaxNodeID()) != g.NumNodes() {
			return false
		}
		// Every original triple must appear remapped.
		want := map[Triple]int{}
		for _, tr := range before.Triples() {
			want[Triple{Src: remap[tr.Src], Dst: remap[tr.Dst], Label: tr.Label}]++
		}
		for _, tr := range g.Triples() {
			want[tr]--
		}
		for _, c := range want {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: WeakComponents partitions the alive nodes.
func TestWeakComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n; i++ {
			u := NodeID(1 + rng.Intn(n))
			v := NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(1, u, v)
			}
		}
		seen := map[NodeID]bool{}
		total := 0
		for _, comp := range g.WeakComponents() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIncidentSeqMatchesIncident(t *testing.T) {
	g := New(5)
	e0 := g.AddEdge(1, 1, 2)
	e1 := g.AddEdge(2, 2, 3)
	e := g.AddEdge(1, 3, 2)
	e3 := g.AddEdge(3, 2, 4)
	g.RemoveEdge(e) // leave a dead entry for the seq to skip

	got := slices.Collect(g.IncidentSeq(2))
	if want := []EdgeID{e0, e1, e3}; !slices.Equal(got, want) {
		t.Fatalf("IncidentSeq(2) = %v, want the alive edges in insertion order %v", got, want)
	}
	// Early termination must not panic or over-yield.
	n := 0
	for range g.IncidentSeq(2) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("early break yielded %d edges, want 1", n)
	}
}

func TestAppendNeighborsMatchesNeighbors(t *testing.T) {
	g := New(6)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 4, 2)
	g.AddEdge(1, 2, 3)  // parallel edge: neighbor 3 must stay deduped
	buf := []NodeID{99} // pre-existing prefix must be preserved
	buf = g.AppendNeighbors(buf, 2)
	if buf[0] != 99 {
		t.Fatal("AppendNeighbors clobbered the prefix")
	}
	got, want := buf[1:], g.Neighbors(2)
	if len(got) != len(want) {
		t.Fatalf("AppendNeighbors = %v, Neighbors = %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendNeighbors = %v, Neighbors = %v", got, want)
		}
	}
}
