package core

import (
	"context"
	"fmt"
	"slices"

	"graphrepair/internal/buf"
	"graphrepair/internal/faultinject"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// Options configure gRePair. The zero value is not valid; use
// DefaultOptions (maxRank 4 and the FP order, the configuration the
// paper found best across its datasets).
type Options struct {
	// MaxRank is the maximal rank of a digram (and thus of any
	// nonterminal); digrams of higher rank are not counted
	// (Sec. III-B2). Must be in 1..MaxSupportedRank.
	MaxRank int
	// Order is the node order steering occurrence counting
	// (Sec. III-B1).
	Order order.Kind
	// Seed feeds the Random order (and nothing else).
	Seed int64
	// ConnectComponents enables the virtual-edge stage: after the main
	// loop, disconnected components of the start graph are chained
	// with virtual edges and the loop reruns, which lets repeated
	// structure across components be shared (Sec. III-A, Fig. 13).
	ConnectComponents bool
	// SkipPrune disables the pruning phase (for experiments).
	SkipPrune bool
	// SinglePass disables the stage fixpoint: each stage runs the
	// occurrence counting exactly once, as in a literal reading of the
	// paper's algorithm (for ablation experiments).
	SinglePass bool
	// Workers selects the parallel sharded mode: with Workers > 1 the
	// input is split into shards (by weak component, or by a balanced
	// node partition when one giant component dominates), the shards
	// are compressed concurrently on at most Workers goroutines with
	// per-worker arenas, and the per-shard grammars are merged with
	// disjoint nonterminal ranges before a final sequential stage runs
	// over the merged start graph (DESIGN.md §12). 0 and 1 select the
	// sequential legacy path, whose output is byte-identical to the
	// golden grammars; Workers > 1 produces output that is
	// derive-isomorphic and independent of the worker count, but not
	// byte-identical to the sequential grammar (digram counts pool
	// across shards in sequential mode).
	Workers int
}

// DefaultOptions returns the paper's recommended configuration.
func DefaultOptions() Options {
	return Options{MaxRank: 4, Order: order.FP, ConnectComponents: true}
}

// Stats reports what the compressor did.
type Stats struct {
	// Rounds is the number of digram replacement rounds (= rules
	// created before pruning, including the virtual-edge stage).
	Rounds int
	// Replacements is the total number of occurrences replaced.
	Replacements int
	// RulesPruned counts rules removed by the pruning phase.
	RulesPruned int
	// VirtualEdges is the number of virtual edges added to connect
	// components (0 if the graph was connected or the stage is off).
	VirtualEdges int
	// SkippedDuplicates counts occurrences skipped because replacing
	// them would have created a second edge with identical label and
	// attachment (which matrices could not represent).
	SkippedDuplicates int
	// FPClasses is |[≅FP]| of the input when the FP order was used
	// (0 otherwise); the paper correlates it with compression.
	FPClasses int
}

// Result is a compressed graph: a straight-line HR grammar whose
// derivation is isomorphic to the input, plus bookkeeping.
type Result struct {
	Grammar *grammar.Grammar
	Stats   Stats
	// startRemap is the flat input→start-graph node mapping: indexed
	// by input node ID, value is the ID after compaction (1..|V_S|),
	// 0 for nodes consumed into rules. Flat because the map view it
	// replaced was ~5% of the compressor's residual allocations and
	// merging per-shard maps would multiply that by the worker count.
	startRemap []hypergraph.NodeID
}

// StartRemap returns the flat input→start-graph node mapping: entry v
// is input node v's ID after compaction (1..|V_S|), or 0 if the node
// was consumed into a rule. Entry 0 is always 0.
func (r *Result) StartRemap() []hypergraph.NodeID { return r.startRemap }

// virtualLabel is the reserved label of virtual connector edges; it
// never appears in the final grammar.
const virtualLabel hypergraph.Label = 0

// Compress runs gRePair on a simple directed edge-labeled graph whose
// labels are 1..terminals. The input graph is not modified. It is
// CompressContext with a background context (no cancellation).
func Compress(g *hypergraph.Graph, terminals hypergraph.Label, opts Options) (*Result, error) {
	return CompressContext(context.Background(), g, terminals, opts)
}

// CompressContext is Compress with cooperative cancellation: ctx is
// polled at digram-replacement round boundaries (amortized over a
// small stride so the checks cost nothing against the hot loop), and
// a canceled run returns a *govern.CanceledError wrapping
// govern.ErrCanceled without partial results. Compression allocates
// strictly less than the input graph, so Limits plays no role here —
// the bomb asymmetry is on the decode/derive side.
func CompressContext(ctx context.Context, g *hypergraph.Graph, terminals hypergraph.Label, opts Options) (*Result, error) {
	if opts.MaxRank < 1 || opts.MaxRank > MaxSupportedRank {
		return nil, fmt.Errorf("core: MaxRank %d out of range 1..%d", opts.MaxRank, MaxSupportedRank)
	}
	for id := range g.EdgesSeq() {
		lab, att := g.Label(id), g.Att(id)
		if lab < 1 || lab > terminals {
			return nil, fmt.Errorf("core: edge %d (%s) has label %d outside the terminal alphabet 1..%d",
				id, describeEdge(lab, att), lab, terminals)
		}
		if len(att) != 2 {
			return nil, fmt.Errorf("core: edge %d (%s) has rank %d; input must be a simple graph of rank-2 edges",
				id, describeEdge(lab, att), len(att))
		}
	}

	if opts.Workers > 1 {
		return compressSharded(ctx, g, terminals, opts)
	}

	c := newCompressor(g, terminals, opts)
	c.ctx = ctx
	return c.run()
}

// run executes the full pipeline on the compressor's graph: the main
// replacement fixpoint, the virtual-edge stage, pruning, compaction,
// and validation. The sequential path calls it once; the sharded path
// calls it per shard (with pruning deferred) and once more on the
// merged start graph.
func (c *compressor) run() (*Result, error) {
	// Stage 1: the main replacement loop, iterated to a fixpoint.
	// The greedy per-node pairing can leave admissible pairs uncounted
	// (an edge joins at most one occurrence per digram per pass), so a
	// fresh occurrence count after convergence often finds more
	// digrams; every extra pass strictly shrinks the graph or is the
	// last (DESIGN.md §5).
	if err := c.runToFixpoint(); err != nil {
		return nil, err
	}

	// Stage 2: connect components with virtual edges and rerun
	// (Sec. III-A, "additional step"), then strip the virtual edges.
	if c.opts.ConnectComponents {
		// Only the smallest node per component is needed, so the flat
		// WeakComponentsInto replaces the per-component slice shape.
		if n := c.g.WeakComponentsInto(&c.comps); n > 1 {
			for i := 0; i+1 < n; i++ {
				u, w := c.comps.Reps[i], c.comps.Reps[i+1]
				id := c.g.AddEdge(virtualLabel, u, w)
				c.growEdgeState()
				iid := c.eset.intern(virtualLabel, u, w)
				c.eset.counts[iid]++
				c.edgeIID[id] = iid
				c.stats.VirtualEdges++
			}
			if err := c.runToFixpoint(); err != nil {
				return nil, err
			}
			c.stripVirtualEdges()
		}
	}

	if !c.opts.SkipPrune {
		c.stats.RulesPruned = c.gram.Prune()
	}
	remap := c.g.Compact()
	if err := c.gram.Validate(); err != nil {
		return nil, fmt.Errorf("core: produced invalid grammar: %w", err)
	}
	return &Result{Grammar: c.gram, Stats: c.stats, startRemap: remap}, nil
}

// describeEdge renders an edge's label and attachment for error
// messages, so callers can locate the offending input edge without
// knowing internal edge IDs.
func describeEdge(label hypergraph.Label, att []hypergraph.NodeID) string {
	if len(att) == 2 {
		return fmt.Sprintf("label %d, %d -> %d", label, att[0], att[1])
	}
	return fmt.Sprintf("label %d, attachment %v", label, att)
}

// newCompressor clones the input, reserved for the whole run, and
// allocates the stage state that is reused (never reallocated) across
// all stages of the run.
func newCompressor(g *hypergraph.Graph, terminals hypergraph.Label, opts Options) *compressor {
	// Node IDs survive the clone, so the input's component scratch is
	// the virtual-edge stage's, already at size.
	var cs hypergraph.Components
	comps := g.WeakComponentsInto(&cs)
	ids, att := runReservation(g.NumEdges(), comps)
	c := newCompressorOn(g.CloneReserve(ids, att), grammar.New(terminals, nil), opts, comps)
	c.comps = cs
	return c
}

// runReservation returns the edge IDs and attachment slots a
// compressor run on a graph of the given live edges and weak
// components may add: each replacement turns two live edges into one,
// and the virtual-edge stage adds at most comps−1 edges, so a run mints
// at most edges + 2(comps−1) − 1 edge IDs (DESIGN.md §5.6). A minted
// edge may have any rank up to MaxRank, so attachment slots have no
// useful bound; three per edge ID covers what the catalog's runs mint.
func runReservation(edges, comps int) (ids, att int) {
	ids = max(edges+2*(comps-1)-1, 0)
	return ids, 3 * ids
}

// newCompressorOn builds a compressor that takes ownership of g — a
// compacted graph with comps weak components that becomes the
// grammar's start graph and is consumed in place — and of gram, which
// may already carry rules (the sharded path resumes compression on a
// merged start graph whose nonterminal edges reference the merged
// rules). The graph and the per-edge tables are reserved for the whole
// run here, once; callers that build g reserve it at that size up
// front, which makes this reservation free.
func newCompressorOn(g *hypergraph.Graph, gram *grammar.Grammar, opts Options, comps int) *compressor {
	c := allocCompressor(0, 0)
	c.resetOn(g, gram, opts, comps)
	return c
}

// allocCompressor returns a compressor with no graph bound (resetOn
// binds one), its per-edge tables reserved for edgeCap edge IDs and its
// per-node table for nodeSlots entries (the largest NodeID plus one).
// resetOn and the runs after it never regrow them on graphs within
// those bounds, so a compressor reused across shards, reserved at the
// largest shard's, allocates them once whatever shards it runs. Its
// arenas grow on first use.
func allocCompressor(edgeCap, nodeSlots int) *compressor {
	c := &compressor{
		refiner: order.NewRefiner(),
		digrams: make(map[digramKey]int32),
		edgeIID: make([]int32, 0, edgeCap),
		avail:   make([]availability, 0, nodeSlots),
	}
	c.occs.head = make([]int32, 0, edgeCap)
	c.occs.tail = make([]int32, 0, edgeCap)
	return c
}

// resetOn binds the compressor to a new graph, grammar and options, as
// newCompressorOn describes, reusing every table, arena and scratch
// buffer of its previous runs: a compressor can run any number of
// graphs one after another, and a run on a reset compressor produces
// exactly what a fresh one would.
func (c *compressor) resetOn(g *hypergraph.Graph, gram *grammar.Grammar, opts Options, comps int) {
	c.g, c.gram, c.opts = g, gram, opts
	c.stats, c.tick, c.ord = Stats{}, 0, nil
	c.refiner.Reset()
	clear(c.digrams)
	c.digramPool = c.digramPool[:0]
	c.gram.Start = c.g
	c.g.Reserve(runReservation(c.g.NumEdges(), comps))
	// Intern every rank-2 edge exactly; the duplicate veto only applies
	// to rank-2 edges (adjacency-matrix encoding). On the sequential
	// path every edge is rank 2 (validated by Compress); a merged start
	// graph may also carry higher-rank nonterminal edges, which are
	// left at noEntry like any hyperedge created later.
	c.eset.reset(c.g.NumEdges())
	c.edgeIID = fillNeg(c.edgeIID, int(c.g.MaxEdgeID()), c.g.EdgeCap())
	for id := range c.g.EdgesSeq() {
		att := c.g.Att(id)
		if len(att) != 2 {
			continue
		}
		iid := c.eset.intern(c.g.Label(id), att[0], att[1])
		c.eset.counts[iid]++
		c.edgeIID[id] = iid
	}
	// The compressor only ever adds edges, never nodes, so per-node
	// state can live in flat arrays indexed by NodeID. stageInit resets
	// every entry before it is read.
	c.avail = buf.Grow(c.avail, int(c.g.MaxNodeID())+1)
}

// availEntry is one link of an availability chain in the shared arena.
type availEntry struct {
	id   hypergraph.EdgeID
	next int32
}

// availGroup is one effLabel group of a node's availability: the key,
// the availPool index of the entry chain's top (noEntry when drained),
// and the groupPool index of the node's next group. The groups of one
// node form a chain sorted ascending by key.
type availGroup struct {
	l    effLabel
	head int32
	next int32
}

// availability is the per-node structure backing constant-time pairing
// of new nonterminal edges (Sec. III-C1): for every effLabel a LIFO
// chain of candidate edges. Both the groups and their entries live in
// per-stage arenas on the compressor (groupPool / availPool, reset in
// stageInit), so neither building a node's availability nor pushing a
// candidate allocates below the arenas' high-water marks (DESIGN.md
// §9). Entries are
// popped at most once; dead or blocked candidates are discarded, which
// keeps the total pairing work linear in the node's degree across all
// replacements. Group insertion in sorted key position and entry
// push/pop at the chain head reproduce the iteration and pop order of
// the pre-PR-4 sorted per-node group slices exactly.
type availability struct {
	built  bool
	groups int32 // groupPool index of the first group, or noEntry
}

func (a *availability) reset() {
	a.built = false
	a.groups = noEntry
}

// availPush makes edge id available under key l at availability a,
// inserting a new group in sorted chain position if needed.
func (c *compressor) availPush(a *availability, l effLabel, id hypergraph.EdgeID) {
	prev := noEntry
	for gi := a.groups; gi != noEntry; {
		g := c.groupPool.at(gi)
		if g.l == l {
			g.head = c.availPool.push(availEntry{id: id, next: g.head})
			return
		}
		if g.l > l {
			break
		}
		prev, gi = gi, g.next
	}
	head := c.availPool.push(availEntry{id: id, next: noEntry})
	if prev == noEntry {
		a.groups = c.groupPool.push(availGroup{l: l, head: head, next: a.groups})
	} else {
		p := c.groupPool.at(prev)
		p.next = c.groupPool.push(availGroup{l: l, head: head, next: p.next})
	}
}

// incEntry is one incident edge tagged with its effLabel and its
// position in the incidence list; sorting by (l, idx) groups edges by
// effLabel while preserving incidence order within each group.
type incEntry struct {
	l   effLabel
	idx int32
	id  hypergraph.EdgeID
}

type compressor struct {
	g    *hypergraph.Graph
	gram *grammar.Grammar
	opts Options
	// ctx is polled at replacement-round boundaries; tick amortizes
	// the poll over roundCheckStride rounds.
	ctx  context.Context
	tick int
	// refiner persists order-refinement state across stages: stage n+1
	// refines incrementally from stage n's order instead of from
	// scratch, and the per-stage *Result it returns reuses one arena
	// (DESIGN.md §7). ord always points at the refiner's current
	// result.
	refiner *order.Refiner
	ord     *order.Result

	// digrams maps a packed key to its index in digramPool; the pool
	// doubles as the deterministic first-seen digram order (map
	// iteration is never used for anything order-sensitive).
	digrams    map[digramKey]int32
	digramPool []digramInfo
	// occPool is the arena behind all occurrence references; digOccs
	// chains each digram's occurrences through a shared per-stage
	// arena in append order (see digramOccs).
	occPool arena[occurrence]
	digOccs digramOccs
	pq      bucketQueue
	// occs holds every edge's occurrence list and used-key set in one
	// shared per-stage arena (chained entries, insertion order
	// preserved; see edgeOccs).
	occs edgeOccs
	// eset interns alive rank-2 edges by exact (label, attachment) to
	// veto duplicate-creating replacements; edgeIID records each
	// edge's interned ID (noEntry for non-rank-2 edges) so removal
	// decrements without rehashing.
	eset    edgeInterner
	edgeIID []int32
	// avail holds lazily built per-node pairing chains, indexed by
	// NodeID (the node ID space is fixed for the whole run); the
	// effLabel groups of all nodes live in groupPool and their entry
	// chains in availPool, both reset per stage.
	avail     []availability
	groupPool arena[availGroup]
	availPool arena[availEntry]
	// comps is the weak-component scratch behind the virtual-edge
	// stage, reused so component discovery is allocation-free once
	// warm.
	comps hypergraph.Components

	// ruleB stages rule-graph materialization in pooled buffers so a
	// created rule costs only its own exactly-reserved backing arrays.
	ruleB ruleGraphBuilder

	stats Stats

	// Reused scratch (DESIGN.md §5.6). co1/co2 serve tryCount;
	// co3/co4 serve replaceDigram, whose canonical form must survive
	// the nested tryCount calls that pairing triggers.
	co1, co2, co3, co4 canonOcc
	incBuf             []incEntry
	groupStart         []int32
	liveBuf            []int32
	attBuf, remBuf     []hypergraph.NodeID
}

// runToFixpoint repeats runStage until a pass creates no further
// replacements. Termination: every pass with replacements removes at
// least two edges per created rule.
func (c *compressor) runToFixpoint() error {
	for {
		before := c.stats.Replacements
		if err := c.runStage(); err != nil {
			return err
		}
		if c.opts.SinglePass || c.stats.Replacements == before {
			return nil
		}
	}
}

// stageInit resets every piece of stage state for a fresh occurrence
// count, reusing all arenas and scratch from previous stages, and
// computes the node order.
func (c *compressor) stageInit() {
	clear(c.digrams)
	c.digramPool = c.digramPool[:0]
	c.occPool.reset()
	c.digOccs.reset()
	c.pq.reset(c.g.NumEdges())
	c.occs.reset(int(c.g.MaxEdgeID()), c.g.EdgeCap())
	c.availPool.reset()
	c.groupPool.reset()
	for i := range c.avail {
		c.avail[i].reset()
	}

	c.ord = c.refiner.Compute(c.g, c.opts.Order, c.opts.Seed)
	if c.opts.Order == order.FP && c.stats.FPClasses == 0 {
		c.stats.FPClasses = c.ord.Classes
	}
}

// roundCheckStride bounds how many replacement rounds may pass
// between two context polls in runStage.
const roundCheckStride = 64

// runStage performs one full run of steps 2–7 of the algorithm:
// count occurrences along the node order, then repeatedly replace the
// most frequent digram until no digram has two live occurrences.
func (c *compressor) runStage() error {
	c.stageInit()

	// Step 2: initial occurrence counting in ω order.
	for _, u := range c.ord.Seq {
		c.countAround(u)
	}
	for di := range c.digramPool {
		c.pq.update(c.digramPool, int32(di))
	}

	// Steps 3–7.
	for {
		if c.tick++; c.tick%roundCheckStride == 0 {
			if err := govern.Checkpoint(c.ctx, "core: compress"); err != nil {
				return err
			}
		}
		di := c.pq.popMax(c.digramPool)
		if di == noDigram {
			return nil
		}
		c.replaceDigram(di)
	}
}

// groupIncident fills incBuf with (effLabel, EdgeID) entries for the
// alive edges incident with v, sorted by effLabel with incidence
// order preserved inside each group, and records the group boundaries
// in groupStart (group i spans incBuf[groupStart[i]:groupStart[i+1]]).
func (c *compressor) groupIncident(v hypergraph.NodeID) {
	// Sized exactly to v's degree: append's growth would allocate the
	// hub of a skewed graph (rdf-types-ru: degree ~600k) several times.
	buf := c.incBuf[:0]
	if d := c.g.Degree(v); cap(buf) < d {
		buf = make([]incEntry, 0, d)
	}
	i := int32(0)
	for id := range c.g.IncidentSeq(v) {
		buf = append(buf, incEntry{l: makeEffLabel(c.g.Label(id), c.g.AttPos(id, v)), idx: i, id: id})
		i++
	}
	slices.SortFunc(buf, func(a, b incEntry) int {
		if a.l != b.l {
			if a.l < b.l {
				return -1
			}
			return 1
		}
		return int(a.idx - b.idx)
	})
	c.incBuf = buf
	gs := append(c.groupStart[:0], 0)
	for k := 1; k < len(buf); k++ {
		if buf[k].l != buf[k-1].l {
			gs = append(gs, int32(k))
		}
	}
	c.groupStart = append(gs, int32(len(buf)))
}

// countAround enumerates O(deg) candidate pairs centered at u: the
// incident edges are grouped by effLabel, and groups are zipped
// pairwise (Sec. III-C1 "occurrence lists").
func (c *compressor) countAround(u hypergraph.NodeID) {
	c.groupIncident(u)
	gs := c.groupStart
	for i := 0; i+1 < len(gs); i++ {
		s0, e0 := gs[i], gs[i+1]
		// Same-group pairs: consecutive edges.
		for m := s0; m+1 < e0; m += 2 {
			c.tryCount(u, c.incBuf[m].id, c.incBuf[m+1].id)
		}
		for j := i + 1; j+1 < len(gs); j++ {
			s1, e1 := gs[j], gs[j+1]
			n := e0 - s0
			if e1-s1 < n {
				n = e1 - s1
			}
			for m := int32(0); m < n; m++ {
				c.tryCount(u, c.incBuf[s0+m].id, c.incBuf[s1+m].id)
			}
		}
	}
}

// tryCount registers {x, y} as an occurrence of its digram if it is
// admissible: rank within bounds, not double-counted at another shared
// node, and neither edge already in an occurrence of the same digram.
// It returns the pool index of the digram the occurrence was added
// to, or noDigram.
func (c *compressor) tryCount(u hypergraph.NodeID, x, y hypergraph.EdgeID) int32 {
	if x == y {
		return noDigram
	}
	co := canonicalizeInto(c.g, x, y, &c.co1, &c.co2)
	r := co.rank()
	if r < 1 || r > c.opts.MaxRank {
		return noDigram
	}
	// Pairs sharing several nodes are counted only at the ω-smallest
	// shared node, so the same pair is never registered twice.
	if len(co.shared) > 1 {
		for _, s := range co.shared {
			if c.ord.Pos[s] < c.ord.Pos[u] {
				return noDigram
			}
		}
	}
	h := co.key.hash()
	if c.occs.keyUsed(x, h) || c.occs.keyUsed(y, h) {
		return noDigram
	}

	di, ok := c.digrams[co.key]
	if !ok {
		di = int32(len(c.digramPool))
		c.digramPool = appendDigram(c.digramPool, co.key)
		c.digrams[co.key] = di
	}
	d := &c.digramPool[di]
	if d.retired {
		return noDigram
	}
	oi := c.occPool.push(occurrence{e1: int32(x), e2: int32(y), dig: di})
	c.digOccs.add(d, oi)
	d.count++
	c.occs.add(x, h, oi)
	c.occs.add(y, h, oi)
	return di
}

// growEdgeState extends the per-edge tables after a new edge was
// added to the graph.
func (c *compressor) growEdgeState() {
	n := int(c.g.MaxEdgeID())
	c.occs.grow(n)
	c.edgeIID = growNeg(c.edgeIID, n)
}

// replaceDigram performs steps 4–6 for the selected digram: creates a
// fresh nonterminal, replaces every live occurrence, invalidates
// overlapping occurrences of other digrams, and pairs each new
// nonterminal edge with available neighboring edges.
func (c *compressor) replaceDigram(di int32) {
	// Copy the key out: the pool may grow (invalidating pointers)
	// when pairing discovers new digrams below.
	c.digramPool[di].retired = true
	key := c.digramPool[di].key

	// First pass: walk the occurrence chain in append order, keeping
	// the live occurrences; the second pass below replaces them. The
	// chain is never appended to between the passes (the digram is
	// retired), so the reused liveBuf snapshot is stable.
	live := c.liveBuf[:0]
	for i := c.digramPool[di].occHead; i != noEntry; {
		l := c.digOccs.pool.at(i)
		oi := l.oi
		i = l.next
		o := c.occPool.at(oi)
		if !o.dead && c.g.HasEdge(hypergraph.EdgeID(o.e1)) && c.g.HasEdge(hypergraph.EdgeID(o.e2)) {
			live = append(live, oi)
		}
	}
	c.liveBuf = live
	if len(live) < 2 {
		return
	}

	var nt hypergraph.Label
	for _, oi := range live {
		// Earlier replacements in this loop never consume edges of
		// later occurrences (lists are non-overlapping), but guard
		// against it anyway.
		o := c.occPool.at(oi)
		e1, e2 := hypergraph.EdgeID(o.e1), hypergraph.EdgeID(o.e2)
		if o.dead || !c.g.HasEdge(e1) || !c.g.HasEdge(e2) {
			continue
		}
		co := canonicalizeInto(c.g, e1, e2, &c.co3, &c.co4)
		if co.key != key {
			continue // defensive: context drifted (should not happen)
		}
		c.attBuf = co.appendAttachment(c.attBuf[:0])
		if nt == 0 {
			// First admissible occurrence: materialize the rule. The
			// failpoint simulates an allocation failure inside the pooled
			// builder — a path with no error return, so it panics and the
			// facade's recover backstop must catch it.
			if faultinject.Enabled {
				faultinject.HitPanic(faultinject.CoreRule)
			}
			nt = c.gram.AddRule(c.ruleB.build(c.g, co))
			c.stats.Rounds++
		}
		// Rank-2 edges are encoded per label as adjacency matrices,
		// which cannot represent parallel edges, so a replacement that
		// would duplicate an existing (label, source, target) edge is
		// skipped. Edges of other ranks live in incidence matrices
		// (one column per edge) where parallel edges are fine. The
		// interned count is exact: only a true duplicate vetoes, never
		// a hash collision.
		iid := noEntry
		if len(c.attBuf) == 2 {
			iid = c.eset.intern(nt, c.attBuf[0], c.attBuf[1])
			if c.eset.counts[iid] > 0 {
				c.stats.SkippedDuplicates++
				continue
			}
		}
		c.replaceOccurrence(oi, co, nt, iid)
	}
}

// replaceOccurrence removes the two occurrence edges and the internal
// nodes, inserts the nonterminal edge, and updates occurrence lists.
// The caller must have filled attBuf with co's attachment nodes and
// pass the interned ID of the new edge's (label, attachment), or
// noEntry for a non-rank-2 edge.
func (c *compressor) replaceOccurrence(oi int32, co *canonOcc, nt hypergraph.Label, iid int32) {
	g := c.g
	o := *c.occPool.at(oi)
	for _, e := range [2]hypergraph.EdgeID{hypergraph.EdgeID(o.e1), hypergraph.EdgeID(o.e2)} {
		// Invalidate every other occurrence using e.
		for i := c.occs.head[e]; i >= 0; {
			en := c.occs.pool.at(i)
			otherI := en.oi
			i = en.next
			if otherI == oi {
				continue
			}
			other := c.occPool.at(otherI)
			if other.dead {
				continue
			}
			other.dead = true
			c.digramPool[other.dig].count--
			c.pq.update(c.digramPool, other.dig)
		}
		c.occs.clear(e)
		if j := c.edgeIID[e]; j >= 0 {
			c.eset.counts[j]--
		}
		g.RemoveEdge(e)
	}
	c.occPool.at(oi).dead = true
	c.digramPool[o.dig].count--

	c.remBuf = co.appendRemoval(c.remBuf[:0])
	for _, v := range c.remBuf {
		g.RemoveNode(v)
		c.avail[v].reset()
	}

	id := g.AddEdge(nt, c.attBuf...)
	c.growEdgeState()
	c.edgeIID[id] = iid
	if iid >= 0 {
		c.eset.counts[iid]++
	}
	c.stats.Replacements++

	// Step 6: pair the new edge with one available neighbor per
	// effLabel group around each attachment node.
	for _, v := range c.attBuf {
		c.pairNewEdge(id, v)
	}
	// Make the new edge available for future pairings.
	for pos, v := range c.attBuf {
		if c.avail[v].built {
			c.availPush(&c.avail[v], makeEffLabel(nt, pos), id)
		}
	}
}

// pairNewEdge pairs nonterminal edge id with at most one candidate per
// effLabel group at node v, popping candidates from the availability
// chains (each edge is offered at most once per node and group, which
// bounds total pairing work by the node degree).
func (c *compressor) pairNewEdge(id hypergraph.EdgeID, v hypergraph.NodeID) {
	a := &c.avail[v]
	if !a.built {
		a.built = true
		c.groupIncident(v)
		gs := c.groupStart
		tail := noEntry
		for gi := 0; gi+1 < len(gs); gi++ {
			s, e := gs[gi], gs[gi+1]
			if s == e {
				continue
			}
			// groupIncident emits groups in ascending key order, so each
			// group appends at the tail of the chain.
			head := noEntry
			// Chain in reverse so that pop order follows incidence order.
			for m := e - 1; m >= s; m-- {
				head = c.availPool.push(availEntry{id: c.incBuf[m].id, next: head})
			}
			ni := c.groupPool.push(availGroup{l: c.incBuf[s].l, head: head, next: noEntry})
			if tail == noEntry {
				a.groups = ni
			} else {
				c.groupPool.at(tail).next = ni
			}
			tail = ni
		}
	}
	for gi := a.groups; gi != noEntry; {
		g := c.groupPool.at(gi)
		h := g.head
		for h >= 0 {
			en := c.availPool.at(h)
			f := en.id
			h = en.next
			if f == id || !c.g.HasEdge(f) {
				continue
			}
			if di := c.tryCount(v, id, f); di != noDigram {
				c.pq.update(c.digramPool, di)
				break
			}
		}
		g.head = h
		gi = g.next
	}
}

// stripVirtualEdges deletes every virtual edge from the start graph
// and all right-hand sides (they were only scaffolding for the second
// stage; the derived graph must not contain them).
func (c *compressor) stripVirtualEdges() {
	strip := func(h *hypergraph.Graph) {
		for id := range h.EdgesSeq() {
			if h.Label(id) == virtualLabel {
				h.RemoveEdge(id)
			}
		}
	}
	strip(c.g)
	for _, l := range c.gram.Nonterminals() {
		strip(c.gram.Rule(l))
	}
}
