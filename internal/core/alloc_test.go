package core

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
)

// warmCompressor builds a compressor mid-stage: state reset, order
// computed, and every node's candidate pairs counted, so the scratch
// buffers and arenas are at steady-state capacity.
func warmCompressor(t *testing.T, g *hypergraph.Graph, terminals hypergraph.Label) *compressor {
	t.Helper()
	c := newCompressor(g, terminals, DefaultOptions())
	c.stageInit()
	for _, u := range c.ord.Seq {
		c.countAround(u)
	}
	return c
}

// adjacentPairAt returns the first two edges incident with u.
func adjacentPairAt(t *testing.T, c *compressor, u hypergraph.NodeID) (hypergraph.EdgeID, hypergraph.EdgeID) {
	t.Helper()
	inc := c.g.AppendIncident(nil, u)
	if len(inc) < 2 {
		t.Fatalf("node %d has %d incident edges, want >= 2", u, len(inc))
	}
	return inc[0], inc[1]
}

// TestHotPathAllocationBudgets pins the steady-state allocation
// behavior of the three inner-loop primitives to zero: once the
// scratch buffers are warm, canonicalizing a pair, grouping a node's
// incident edges, and evaluating (and rejecting) a candidate pair must
// not allocate at all.
func TestHotPathAllocationBudgets(t *testing.T) {
	// chainGraph alternates two labels, so canonicalizeInto takes the
	// distinct-label path.
	c := warmCompressor(t, chainGraph(64), 2)
	u := hypergraph.NodeID(3) // interior node: one a-edge, one b-edge
	x, y := adjacentPairAt(t, c, u)

	if n := testing.AllocsPerRun(200, func() {
		canonicalizeInto(c.g, x, y, &c.co1, &c.co2)
	}); n != 0 {
		t.Errorf("canonicalize (distinct labels) allocates %v/op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.groupIncident(u)
	}); n != 0 {
		t.Errorf("groupIncident allocates %v/op in steady state, want 0", n)
	}
	// The pair was already counted during warm-up, so tryCount takes
	// the full candidate path (canonical form, digram lookup, used-set
	// probe) and rejects — the most frequent path in real runs.
	if di := c.tryCount(u, x, y); di != noDigram {
		t.Fatal("expected the warmed-up pair to be rejected as already counted")
	}
	if n := testing.AllocsPerRun(200, func() {
		c.tryCount(u, x, y)
	}); n != 0 {
		t.Errorf("tryCount (rejection path) allocates %v/op in steady state, want 0", n)
	}

	// The full stage-setup path: pool truncation, availability resets
	// and the persistent Refiner's FP order recomputation. PR 1 made
	// the replacement loop allocation-free; with the stage-persistent
	// Refiner the per-stage setup must now hold the same budget.
	if n := testing.AllocsPerRun(100, func() {
		c.stageInit()
	}); n != 0 {
		t.Errorf("stageInit allocates %v/op in steady state, want 0", n)
	}

	// The pairing path around a freshly inserted nonterminal edge:
	// building a node's availability from its grouped incidence must
	// live entirely in the per-stage group/entry arenas. The arenas are
	// truncated like stageInit does, so the loop reaches a high-water
	// mark instead of growing without bound; tryCount settles into its
	// rejection path after the warm-up call counted the pair.
	if n := testing.AllocsPerRun(200, func() {
		c.availPool.reset()
		c.groupPool.reset()
		c.avail[u].reset()
		c.pairNewEdge(x, u)
	}); n != 0 {
		t.Errorf("pairNewEdge availability build allocates %v/op in steady state, want 0", n)
	}

	// Single-label path: labels and ranks tie, forcing the flipped
	// orientation derivation — the pre-optimization worst case.
	g := hypergraph.New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	c2 := warmCompressor(t, g, 1)
	x2, y2 := adjacentPairAt(t, c2, 2)
	if n := testing.AllocsPerRun(200, func() {
		canonicalizeInto(c2.g, x2, y2, &c2.co1, &c2.co2)
	}); n != 0 {
		t.Errorf("canonicalize (label tie) allocates %v/op in steady state, want 0", n)
	}
}

// TestRuleBuilderAllocs pins the rule materialization budget: with the
// builder's mapped-attachment and external buffers warm, building a
// rule graph costs exactly the rule's own backing storage — the
// NewReserved handful (graph struct, bool block, incidence headers,
// extIndex, edge table, NodeID block, incidence arena), nothing from
// mapping, AddEdge growth or SetExt. The pre-builder path allocated
// roughly twice that per rule and was ~58% of the compressor's
// surviving objects on dblp60-70.
func TestRuleBuilderAllocs(t *testing.T) {
	c := warmCompressor(t, chainGraph(64), 2)
	u := hypergraph.NodeID(3)
	x, y := adjacentPairAt(t, c, u)
	co := canonicalizeInto(c.g, x, y, &c.co3, &c.co4)
	rhs := c.ruleB.build(c.g, co) // warm the pooled buffers
	if rhs.NumEdges() != 2 || rhs.Rank() != co.rank() {
		t.Fatalf("builder produced %d edges rank %d, want 2 edges rank %d",
			rhs.NumEdges(), rhs.Rank(), co.rank())
	}
	if n := testing.AllocsPerRun(200, func() {
		c.ruleB.build(c.g, co)
	}); n > 7 {
		t.Errorf("rule builder allocates %v/op, want <= 7 (the rule graph's own arrays)", n)
	}
}

// TestAvailGroupArenaSteadyStateAllocs drives the availability-group
// arena directly: pushing candidates under shuffled keys for every
// node — exercising head, middle and tail insertion into each node's
// sorted group chain — allocates nothing once groupPool and availPool
// sit at their per-stage high-water marks.
func TestAvailGroupArenaSteadyStateAllocs(t *testing.T) {
	c := warmCompressor(t, chainGraph(64), 2)
	ids := slices.Collect(c.g.EdgesSeq())
	keys := []effLabel{
		makeEffLabel(3, 1), makeEffLabel(1, 0), makeEffLabel(2, 1), makeEffLabel(1, 1),
	}
	fill := func() {
		c.availPool.reset()
		c.groupPool.reset()
		for i := range c.avail {
			c.avail[i].reset()
		}
		for vi := 1; vi < len(c.avail); vi++ {
			a := &c.avail[vi]
			a.built = true
			for k, l := range keys {
				c.availPush(a, l, ids[(vi+k)%len(ids)])
			}
		}
	}
	fill() // reach the high-water mark
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Errorf("availability-group arena steady state allocates %v/op, want 0", n)
	}
	// The chains must drain in sorted key order with LIFO entries.
	a := &c.avail[1]
	var got []effLabel
	for gi := a.groups; gi != noEntry; gi = c.groupPool.at(gi).next {
		got = append(got, c.groupPool.at(gi).l)
	}
	want := []effLabel{makeEffLabel(1, 0), makeEffLabel(1, 1), makeEffLabel(2, 1), makeEffLabel(3, 1)}
	if len(got) != len(want) {
		t.Fatalf("group chain = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("group chain order = %v, want %v", got, want)
		}
	}
}

// TestCompressByteAllocsPerEdge pins the bytes, not just the objects,
// a whole compression allocates: TotalAlloc per input edge on two
// catalog graphs at scale 4, against ceilings calibrated with about
// 35% headroom over the segmented arenas and whole-run reservations
// (DESIGN.md §5.6). Append-grown arenas allocated about 1.2 KB (rdf)
// and 1.7 KB (ca-grqc) per edge here.
func TestCompressByteAllocsPerEdge(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ceiling float64 // bytes per input edge
	}{
		{"rdf-types-ru", 550},
		{"ca-grqc", 715},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := gen.Generate(tc.name, 4)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := Compress(d.Graph, d.Labels, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(d.Graph.NumEdges())
			t.Logf("%s: %.0f B allocated per input edge (%d edges)", tc.name, perEdge, d.Graph.NumEdges())
			if perEdge > tc.ceiling {
				t.Errorf("%s: compression allocates %.0f B per input edge, ceiling %.0f", tc.name, perEdge, tc.ceiling)
			}
		})
	}
}

// TestShardedCompressByteAllocsPerEdge is the sharded twin of
// TestCompressByteAllocsPerEdge: TotalAlloc per input edge of one
// Workers=2 compression of a dblp60-70 version graph. One compressor
// per pool worker, reset between shards, and reading the input in
// place bring it to about 410 B per edge; a fresh compressor per shard
// and an input clone allocated about 1,160. The ceiling also holds
// under -race, where the same run allocates about 565 B per edge.
func TestShardedCompressByteAllocsPerEdge(t *testing.T) {
	const ceiling = 600 // bytes per input edge
	g := gen.DBLPVersionGraph(11, gen.DefaultDBLPParams(601))
	ls := g.Labels()
	opts := DefaultOptions()
	opts.Workers = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Compress(g, ls[len(ls)-1], opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	t.Logf("%.0f B allocated per input edge (%d edges)", perEdge, g.NumEdges())
	if perEdge > ceiling {
		t.Errorf("sharded compression allocates %.0f B per input edge, ceiling %d", perEdge, ceiling)
	}
}

// TestRunMintsWithinReservation checks the bound the working graph is
// reserved from (DESIGN.md §5.6): on every catalog dataset a
// sequential run mints one edge per replacement and one per virtual
// edge, at most |E| + 2(C−1) − 1 in total for C weak components, so
// the edge tables reserved up front are never regrown. The same holds
// for every shard run of the sharded path, and the reused pool
// compressor's per-edge tables, sized before the pool, never regrow
// across all of them. Pruning is skipped: it inlines rules into the
// start graph after the run, which is not minting.
func TestRunMintsWithinReservation(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog sweep; skipped in -short")
	}
	for _, name := range gen.Names("") {
		t.Run(name, func(t *testing.T) {
			d, err := gen.Generate(name, 256)
			if err != nil {
				t.Fatal(err)
			}
			var cs hypergraph.Components
			edges, comps := d.Graph.NumEdges(), d.Graph.WeakComponentsInto(&cs)
			opts := DefaultOptions()
			opts.SkipPrune = true
			c := newCompressor(d.Graph, d.Labels, opts)
			c.ctx = context.Background()
			edgeCap := c.g.EdgeCap()
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if v := res.Stats.VirtualEdges; v > comps-1 {
				t.Errorf("%d virtual edges for %d components", v, comps)
			}
			minted := res.Stats.Replacements + res.Stats.VirtualEdges
			if bound := edges + 2*(comps-1) - 1; minted > bound {
				t.Errorf("minted %d edge IDs, bound |E| + 2(C-1) - 1 = %d (|E| = %d, C = %d)", minted, bound, edges, comps)
			}
			if got := c.g.EdgeCap(); got != edgeCap {
				t.Errorf("edge tables regrown from %d to %d", edgeCap, got)
			}

			// The shard pool: a worker's compressor, reserved before the
			// pool at the largest shard's bound, runs every shard within
			// it and never regrows its per-edge tables.
			shards, _, _, _ := buildShards(d.Graph)
			pc := allocCompressor(poolTableBounds(shards))
			headCap, tailCap := cap(pc.occs.head), cap(pc.occs.tail)
			for i, sh := range shards {
				edges, comps, edgeCap := sh.g.NumEdges(), sh.comps, sh.g.EdgeCap()
				res, err := pc.runShard(context.Background(), sh, d.Labels, shardOptions(opts))
				if err != nil {
					t.Fatal(err)
				}
				minted := res.Stats.Replacements + res.Stats.VirtualEdges
				if bound := edges + 2*(comps-1) - 1; minted > max(bound, 0) {
					t.Errorf("shard %d minted %d edge IDs, bound %d (|E| = %d, C = %d)", i, minted, bound, edges, comps)
				}
				if got := sh.g.EdgeCap(); got != edgeCap {
					t.Errorf("shard %d: edge tables regrown from %d to %d", i, edgeCap, got)
				}
				if cap(pc.occs.head) != headCap || cap(pc.occs.tail) != tailCap {
					t.Fatalf("shard %d: per-edge tables regrown from %d/%d to %d/%d", i,
						headCap, tailCap, cap(pc.occs.head), cap(pc.occs.tail))
				}
			}
		})
	}
}
