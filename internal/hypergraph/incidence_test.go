package hypergraph

import (
	"math/rand"
	"testing"
)

// TestIncidenceChainOrder replays randomized add/remove sequences and
// checks after every step that IncidentSeq yields exactly the alive
// incident edges in insertion order, against the slice-based incOracle
// (fuzz_test.go) that appends on AddEdge and filters on RemoveEdge.
// This pins the contract the compressor's byte-identical output
// depends on: the chained arena must reproduce the iteration order of
// the pre-arena per-node incidence slices.
func TestIncidenceChainOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		o := newIncOracle(n)
		var alive []EdgeID
		for step := 0; step < 300; step++ {
			if len(alive) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(alive))
				id := alive[i]
				g.RemoveEdge(id)
				o.removeEdge(id)
				alive = append(alive[:i], alive[i+1:]...)
			} else {
				u := NodeID(1 + rng.Intn(n))
				v := NodeID(1 + rng.Intn(n))
				if u == v {
					continue
				}
				id := g.AddEdge(Label(1+rng.Intn(3)), u, v)
				o.addEdge(id, u, v)
				alive = append(alive, id)
			}
			o.check(t, g, step)
		}
	}
}

// TestIncidentIsASnapshot pins the snapshot contract of
// AppendIncident: the returned slice is a copy, stable across later
// mutations of the chain it was read from.
func TestIncidentIsASnapshot(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(1, 1, 2)
	e2 := g.AddEdge(2, 2, 3)
	snap := g.AppendIncident(nil, 2)
	g.RemoveEdge(e1)
	g.AddEdge(3, 1, 2)
	if len(snap) != 2 || snap[0] != e1 || snap[1] != e2 {
		t.Fatalf("snapshot changed under mutation: %v", snap)
	}
	if got := g.AppendIncident(nil, 2); len(got) != 2 || got[0] != e2 {
		t.Fatalf("AppendIncident(nil, 2) after mutation = %v", got)
	}
}

// TestIncidentSeqUnlinksDeadSlots checks the lazy chain compaction: a
// traversal that skips tombstoned entries removes them, so removing
// the head, middle and tail of a chain leaves subsequent traversals
// with exactly the alive entries (this is white-box: it inspects the
// chain via AppendIncident after a priming walk).
func TestIncidentSeqUnlinksDeadSlots(t *testing.T) {
	g := New(2)
	var ids []EdgeID
	for i := 0; i < 5; i++ {
		ids = append(ids, g.AddEdge(1, 1, 2))
	}
	g.RemoveEdge(ids[0]) // head
	g.RemoveEdge(ids[2]) // middle
	g.RemoveEdge(ids[4]) // tail
	for walk := 0; walk < 2; walk++ {
		got := g.AppendIncident(nil, 1)
		if len(got) != 2 || got[0] != ids[1] || got[1] != ids[3] {
			t.Fatalf("walk %d: AppendIncident = %v, want [%d %d]", walk, got, ids[1], ids[3])
		}
	}
	// The chain must still accept appends after its tail was unlinked.
	e := g.AddEdge(2, 1, 2)
	got := g.AppendIncident(nil, 1)
	if len(got) != 3 || got[2] != e {
		t.Fatalf("append after tail unlink: %v", got)
	}
}

// TestIncidentSeqROIsPure pins the read-only traversal contract: it
// yields exactly what IncidentSeq would (alive edges, insertion
// order) while leaving tombstoned slots linked — the chain headers
// and links are bit-identical before and after, so concurrent readers
// of an immutable graph never race (the query engine's shared-engine
// serving depends on this).
func TestIncidentSeqROIsPure(t *testing.T) {
	g := New(2)
	var ids []EdgeID
	for i := 0; i < 6; i++ {
		ids = append(ids, g.AddEdge(1, 1, 2))
	}
	g.RemoveEdge(ids[0]) // head
	g.RemoveEdge(ids[3]) // middle
	g.RemoveEdge(ids[5]) // tail
	headBefore, tailBefore := g.inc[1].head, g.inc[1].tail
	linksBefore := append([]incSlot(nil), g.incPool...)
	for walk := 0; walk < 2; walk++ {
		var got []EdgeID
		for id := range g.IncidentSeqRO(1) {
			got = append(got, id)
		}
		if len(got) != 3 || got[0] != ids[1] || got[1] != ids[2] || got[2] != ids[4] {
			t.Fatalf("walk %d: IncidentSeqRO = %v, want [%d %d %d]", walk, got, ids[1], ids[2], ids[4])
		}
	}
	if g.inc[1].head != headBefore || g.inc[1].tail != tailBefore {
		t.Fatal("IncidentSeqRO moved the chain header")
	}
	for i, s := range g.incPool {
		if s != linksBefore[i] {
			t.Fatalf("IncidentSeqRO rewrote chain slot %d: %+v → %+v", i, linksBefore[i], s)
		}
	}
	// Early termination leaves the chain untouched too.
	for range g.IncidentSeqRO(1) {
		break
	}
	if g.inc[1].head != headBefore {
		t.Fatal("early-exit IncidentSeqRO moved the chain header")
	}
}

// TestReservedAddEdgeArenaAllocs pins the tentpole property of the
// incidence arena: with reserved edge, attachment and incidence
// capacity, AddEdge performs no allocation at all — no per-node
// incidence-list doubling remains.
func TestReservedAddEdgeArenaAllocs(t *testing.T) {
	g := New(4)
	g.Reserve(3000, 6000)
	if allocs := testing.AllocsPerRun(1000, func() {
		g.AddEdge(1, 1, 2)
	}); allocs != 0 {
		t.Fatalf("reserved AddEdge allocates %v/op, want 0", allocs)
	}
	// Hyperedges consume one incidence slot per attachment node, so a
	// rank-3 edge is covered by the same attLen reservation.
	g2 := New(3)
	g2.Reserve(1500, 4500)
	if allocs := testing.AllocsPerRun(1000, func() {
		g2.AddEdge(1, 1, 2, 3)
	}); allocs != 0 {
		t.Fatalf("reserved rank-3 AddEdge allocates %v/op, want 0", allocs)
	}
}

// TestCloneReserveAllocs pins CloneReserve's contract: the copy equals
// Clone's, EdgeCap covers the reserved edges, and that many AddEdge
// calls within the reserved attachment slots allocate nothing.
func TestCloneReserveAllocs(t *testing.T) {
	g := New(5)
	for v := NodeID(1); v < 5; v++ {
		g.AddEdge(1, v, v+1)
	}
	g.RemoveEdge(1)
	c := g.CloneReserve(300, 900)
	if !EqualHyper(c, g.Clone()) {
		t.Fatal("CloneReserve differs from Clone")
	}
	if got, want := c.EdgeCap(), c.NumEdges()+300; got < want {
		t.Fatalf("EdgeCap = %d, want >= %d", got, want)
	}
	if allocs := testing.AllocsPerRun(99, func() {
		c.AddEdge(2, 1, 2, 3)
	}); allocs != 0 {
		t.Fatalf("AddEdge inside the reservation allocates %v/op, want 0", allocs)
	}
}

// TestNewReservedAllocs pins the rule-builder constructor contract:
// NewReserved makes a fixed handful of allocations regardless of
// content, and filling the graph to its reserved capacity (AddEdge up
// to the edge/attachment budget, one SetExt up to the ext budget)
// allocates nothing more.
func TestNewReservedAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(500, func() {
		NewReserved(6, 2, 5, 3)
	}); n > 7 {
		t.Errorf("NewReserved allocates %v/op, want <= 7 (struct, bool block, inc, extIndex, edges, NodeID block, incPool)", n)
	}
	g := NewReserved(6, 2, 5, 3)
	if n := testing.AllocsPerRun(200, func() {
		g2 := NewReserved(6, 2, 5, 3)
		g2.AddEdge(1, 1, 2)
		g2.AddEdge(2, 3, 4, 5)
		g2.SetExt(1, 4, 5)
	}); n > 7 {
		t.Errorf("NewReserved + fill to capacity allocates %v/op, want <= 7", n)
	}
	g.AddEdge(1, 1, 2)
	g.AddEdge(2, 3, 4, 5)
	g.SetExt(1, 4, 5)
	if got := g.Ext(); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("Ext = %v", got)
	}
	if g.ExtIndex(4) != 1 || g.ExtIndex(2) != -1 {
		t.Fatal("extIndex not rebuilt")
	}
	if got := g.AppendIncident(nil, 4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AppendIncident(nil, 4) = %v", got)
	}
	// Replacing a non-empty ext must copy fresh so earlier Ext slices
	// stay stable.
	old := g.Ext()
	g.SetExt(2, 3)
	if old[0] != 1 || old[1] != 4 || old[2] != 5 {
		t.Fatalf("previous Ext slice mutated by SetExt: %v", old)
	}
}

// TestCompactArenaReuseAllocs pins the in-place Compact: the edge
// table, attachment arena and incidence arena keep their backing
// arrays (forward compaction, no New/AddEdge rebuild), incidence
// chains come out in insertion order, and the only allocation is
// the returned flat remap slice.
func TestCompactArenaReuseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(40)
	for i := 0; i < 120; i++ {
		u := NodeID(1 + rng.Intn(40))
		v := NodeID(1 + rng.Intn(40))
		if u != v {
			g.AddEdge(Label(1+rng.Intn(3)), u, v)
		}
	}
	for id := range g.EdgesSeq() {
		if rng.Intn(3) == 0 {
			g.RemoveEdge(id)
		}
	}
	for _, v := range g.Nodes() {
		if g.Degree(v) == 0 {
			g.RemoveNode(v)
		}
	}
	attPtr, edgePtr, incPtr := &g.att[0], &g.edges[0], &g.incPool[0]
	before := g.Clone()
	remap := g.Compact()
	if &g.att[0] != attPtr {
		t.Error("Compact reallocated the attachment arena")
	}
	if &g.edges[0] != edgePtr {
		t.Error("Compact reallocated the edge table")
	}
	if &g.incPool[0] != incPtr {
		t.Error("Compact reallocated the incidence arena")
	}
	if g.NumEdges() != before.NumEdges() || g.NumNodes() != before.NumNodes() {
		t.Fatalf("sizes changed: %d/%d nodes, %d/%d edges",
			g.NumNodes(), before.NumNodes(), g.NumEdges(), before.NumEdges())
	}
	// Edge IDs are dense ascending in old-ID order, so every chain must
	// yield strictly ascending edge IDs (= insertion order).
	for v := NodeID(1); v <= g.MaxNodeID(); v++ {
		prev := EdgeID(-1)
		cnt := 0
		for id := range g.IncidentSeq(v) {
			if id <= prev {
				t.Fatalf("node %d: chain out of insertion order (%d after %d)", v, id, prev)
			}
			prev = id
			cnt++
		}
		if cnt != g.Degree(v) {
			t.Fatalf("node %d: chain yields %d edges, Degree says %d", v, cnt, g.Degree(v))
		}
	}
	// Triples must map exactly through the remap.
	want := map[Triple]int{}
	for _, tr := range before.Triples() {
		want[Triple{Src: remap[tr.Src], Dst: remap[tr.Dst], Label: tr.Label}]++
	}
	for _, tr := range g.Triples() {
		want[tr]--
	}
	for tr, c := range want {
		if c != 0 {
			t.Fatalf("triple mismatch after Compact: %v count %d", tr, c)
		}
	}
	// Steady state: compacting the already-compact graph allocates only
	// the flat remap slice (the pre-PR-7 map shape cost up to 6).
	if n := testing.AllocsPerRun(50, func() {
		g.Compact()
	}); n > 1 {
		t.Errorf("in-place Compact allocates %v/op, want <= 1 (the remap slice)", n)
	}
}

// TestWeakComponentsIntoMatchesWeakComponents cross-checks the flat
// component computation against the slice-shaped public API.
func TestWeakComponentsIntoMatchesWeakComponents(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n/2; i++ {
			u := NodeID(1 + rng.Intn(n))
			v := NodeID(1 + rng.Intn(n))
			if u != v {
				g.AddEdge(1, u, v)
			}
		}
		comps := g.WeakComponents()
		var cs Components
		got := g.WeakComponentsInto(&cs)
		if got != len(comps) {
			t.Fatalf("seed %d: %d components, want %d", seed, got, len(comps))
		}
		for i, comp := range comps {
			if cs.Reps[i] != comp[0] {
				t.Fatalf("seed %d: rep[%d] = %d, want %d", seed, i, cs.Reps[i], comp[0])
			}
			for _, v := range comp {
				if cs.Comp[v] != int32(i) {
					t.Fatalf("seed %d: Comp[%d] = %d, want %d", seed, v, cs.Comp[v], i)
				}
			}
		}
	}
}

// TestWeakComponentsIntoAllocs pins the satellite claim: with warm
// scratch, component discovery allocates nothing.
func TestWeakComponentsIntoAllocs(t *testing.T) {
	g := New(200)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		u := NodeID(1 + rng.Intn(200))
		v := NodeID(1 + rng.Intn(200))
		if u != v {
			g.AddEdge(1, u, v)
		}
	}
	var cs Components
	g.WeakComponentsInto(&cs) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		g.WeakComponentsInto(&cs)
	}); allocs != 0 {
		t.Fatalf("warm WeakComponentsInto allocates %v/op, want 0", allocs)
	}
}
