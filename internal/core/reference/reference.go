// Package reference implements a deliberately naive gRePair: the same
// algorithm as internal/core — greedy digram replacement along a node
// order, availability pairing, the duplicate-edge veto, virtual-edge
// component connection, pruning — but built from ordinary maps,
// slices and freshly allocated canonical forms instead of the arena
// and chain machinery of the optimized compressor. Every tie-breaking rule the optimized hot path
// depends on (canonical orientation of an occurrence, bucket-queue
// recency including its lazy stale-entry re-enqueues, availability
// pop order, occurrence-list invalidation order) is spelled out here
// in its simplest possible form, so the package doubles as the
// executable specification of the compressor's semantics.
//
// The differential harness (internal/core/differential_test.go and
// FuzzDifferential) runs both compressors over the generator catalog
// and fuzz-mutated graphs and asserts identical grammars — rule
// counts, stats, encoded bytes, derive-isomorphism. Any arena rewrite
// in internal/core that changes what the compressor *means* (rather
// than how fast it runs) fails the differential even where the golden
// hashes have no coverage. No difference between the two is
// deliberate: a mismatch is a bug in one of them.
package reference

import (
	"fmt"
	"sort"

	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
)

// MaxSupportedRank mirrors core.MaxSupportedRank.
const MaxSupportedRank = 16

// Options configure the reference compressor; the fields mirror
// core.Options (the package cannot import core without creating an
// import cycle through core's tests).
type Options struct {
	MaxRank           int
	Order             order.Kind
	Seed              int64
	ConnectComponents bool
	SkipPrune         bool
	SinglePass        bool
}

// Stats mirrors core.Stats field for field so the harness can compare
// the two compressors' bookkeeping, not just their output.
type Stats struct {
	Rounds            int
	Replacements      int
	RulesPruned       int
	VirtualEdges      int
	SkippedDuplicates int
	FPClasses         int
}

// Result is the reference compressor's output.
type Result struct {
	Grammar *grammar.Grammar
	Stats   Stats
	// StartRemap mirrors core.Result.StartRemap: entry v is input node
	// v's start-graph ID after compaction, or 0 if it was consumed.
	StartRemap []hypergraph.NodeID
}

// virtualLabel mirrors core's reserved connector label.
const virtualLabel hypergraph.Label = 0

// Compress runs the naive gRePair on a simple directed edge-labeled
// graph whose labels are 1..terminals. The input graph is not
// modified.
func Compress(g *hypergraph.Graph, terminals hypergraph.Label, opts Options) (*Result, error) {
	if opts.MaxRank < 1 || opts.MaxRank > MaxSupportedRank {
		return nil, fmt.Errorf("reference: MaxRank %d out of range 1..%d", opts.MaxRank, MaxSupportedRank)
	}
	for id := range g.EdgesSeq() {
		if lab := g.Label(id); lab < 1 || lab > terminals {
			return nil, fmt.Errorf("reference: edge %d has label %d outside 1..%d", id, lab, terminals)
		}
		if len(g.Att(id)) != 2 {
			return nil, fmt.Errorf("reference: edge %d has rank %d; want 2", id, len(g.Att(id)))
		}
	}
	c := &compressor{
		g:         g.Clone(),
		gram:      grammar.New(terminals, nil),
		opts:      opts,
		edgeCount: map[edgeTriple]int{},
	}
	c.gram.Start = c.g
	for id := range c.g.EdgesSeq() {
		att := c.g.Att(id)
		c.edgeCount[edgeTriple{c.g.Label(id), att[0], att[1]}]++
	}

	c.runToFixpoint()
	if opts.ConnectComponents {
		if comps := c.g.WeakComponents(); len(comps) > 1 {
			for i := 0; i+1 < len(comps); i++ {
				u, w := comps[i][0], comps[i+1][0]
				c.g.AddEdge(virtualLabel, u, w)
				c.edgeCount[edgeTriple{virtualLabel, u, w}]++
				c.stats.VirtualEdges++
			}
			c.runToFixpoint()
			c.stripVirtualEdges()
		}
	}
	if !opts.SkipPrune {
		c.stats.RulesPruned = c.gram.Prune()
	}
	remap := c.g.Compact()
	if err := c.gram.Validate(); err != nil {
		return nil, fmt.Errorf("reference: produced invalid grammar: %w", err)
	}
	return &Result{Grammar: c.gram, Stats: c.stats, StartRemap: remap}, nil
}

// edgeTriple identifies a rank-2 edge by label and ordered attachment
// for the duplicate veto, which here counts every live rank-2 edge
// (core stamps only the edges of the current round).
type edgeTriple struct {
	label    hypergraph.Label
	src, dst hypergraph.NodeID
}

// occ is one counted occurrence of a digram.
type occ struct {
	e1, e2 hypergraph.EdgeID
	dig    int
	dead   bool
}

// digram is one active digram: its occurrence list in append order and
// its lazy position marker in the bucket queue.
type digram struct {
	key      string
	occs     []int
	count    int
	queuedAt int
	retired  bool
}

// availGroup is one effLabel bucket of a node's availability:
// candidates are popped from the front and new nonterminal edges are
// pushed onto the front (the pop/push order the optimized chains
// reproduce).
type availGroup struct {
	l       uint64
	entries []hypergraph.EdgeID
}

// avail is a node's lazily built pairing state: groups sorted
// ascending by effLabel.
type avail struct {
	built  bool
	groups []*availGroup
}

type compressor struct {
	g    *hypergraph.Graph
	gram *grammar.Grammar
	opts Options
	ord  *order.Result

	digrams     []*digram
	digramIndex map[string]int
	occs        []*occ
	queue       bucketQueue
	used        map[hypergraph.EdgeID]map[string]bool
	occList     map[hypergraph.EdgeID][]int
	avail       map[hypergraph.NodeID]*avail
	edgeCount   map[edgeTriple]int

	stats Stats
}

func (c *compressor) runToFixpoint() {
	for {
		before := c.stats.Replacements
		c.runStage()
		if c.opts.SinglePass || c.stats.Replacements == before {
			return
		}
	}
}

func (c *compressor) runStage() {
	c.digrams = nil
	c.digramIndex = map[string]int{}
	c.occs = nil
	c.queue.reset(c.g.NumEdges())
	c.used = map[hypergraph.EdgeID]map[string]bool{}
	c.occList = map[hypergraph.EdgeID][]int{}
	c.avail = map[hypergraph.NodeID]*avail{}
	c.ord = order.Compute(c.g, c.opts.Order, c.opts.Seed)
	if c.opts.Order == order.FP && c.stats.FPClasses == 0 {
		c.stats.FPClasses = c.ord.Classes
	}

	for _, u := range c.ord.Seq {
		c.countAround(u)
	}
	for di := range c.digrams {
		c.queue.update(c.digrams, di)
	}
	for {
		di := c.queue.popMax(c.digrams)
		if di < 0 {
			return
		}
		c.replaceDigram(di)
	}
}

func effLabel(label hypergraph.Label, pos int) uint64 {
	return uint64(uint32(label))<<8 | uint64(uint8(pos))
}

// groupIncident returns v's alive incident edges grouped by effLabel:
// groups ascending by key, incidence order preserved within a group.
func (c *compressor) groupIncident(v hypergraph.NodeID) []*availGroup {
	byLabel := map[uint64]*availGroup{}
	var keys []uint64
	for _, id := range c.g.AppendIncident(nil, v) {
		l := effLabel(c.g.Label(id), c.g.AttPos(id, v))
		g, ok := byLabel[l]
		if !ok {
			g = &availGroup{l: l}
			byLabel[l] = g
			keys = append(keys, l)
		}
		g.entries = append(g.entries, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	groups := make([]*availGroup, len(keys))
	for i, l := range keys {
		groups[i] = byLabel[l]
	}
	return groups
}

// countAround enumerates O(deg) candidate pairs centered at u: groups
// are zipped pairwise, and same-group pairs are consecutive entries.
func (c *compressor) countAround(u hypergraph.NodeID) {
	groups := c.groupIncident(u)
	for i := range groups {
		g0 := groups[i].entries
		for m := 0; m+1 < len(g0); m += 2 {
			c.tryCount(u, g0[m], g0[m+1])
		}
		for j := i + 1; j < len(groups); j++ {
			g1 := groups[j].entries
			n := min(len(g0), len(g1))
			for m := 0; m < n; m++ {
				c.tryCount(u, g0[m], g1[m])
			}
		}
	}
}

// tryCount registers {x, y} as an occurrence of its digram if it is
// admissible, returning the digram's index or -1.
func (c *compressor) tryCount(u hypergraph.NodeID, x, y hypergraph.EdgeID) int {
	if x == y {
		return -1
	}
	f := canonicalize(c.g, x, y)
	if r := len(f.extLoc); r < 1 || r > c.opts.MaxRank {
		return -1
	}
	if len(f.shared) > 1 {
		for _, s := range f.shared {
			if c.ord.Pos[s] < c.ord.Pos[u] {
				return -1
			}
		}
	}
	if c.used[x][f.key] || c.used[y][f.key] {
		return -1
	}
	di, ok := c.digramIndex[f.key]
	if !ok {
		di = len(c.digrams)
		c.digrams = append(c.digrams, &digram{key: f.key, queuedAt: -1})
		c.digramIndex[f.key] = di
	}
	d := c.digrams[di]
	if d.retired {
		return -1
	}
	oi := len(c.occs)
	c.occs = append(c.occs, &occ{e1: x, e2: y, dig: di})
	d.occs = append(d.occs, oi)
	d.count++
	for _, e := range [2]hypergraph.EdgeID{x, y} {
		if c.used[e] == nil {
			c.used[e] = map[string]bool{}
		}
		c.used[e][f.key] = true
		c.occList[e] = append(c.occList[e], oi)
	}
	return di
}

// replaceDigram replaces every live occurrence of the digram: first
// pass collects the live occurrences in append order, second pass
// replaces them.
func (c *compressor) replaceDigram(di int) {
	d := c.digrams[di]
	d.retired = true
	key := d.key

	var live []int
	for _, oi := range d.occs {
		o := c.occs[oi]
		if !o.dead && c.g.HasEdge(o.e1) && c.g.HasEdge(o.e2) {
			live = append(live, oi)
		}
	}
	if len(live) < 2 {
		return
	}
	var nt hypergraph.Label
	for _, oi := range live {
		o := c.occs[oi]
		if o.dead || !c.g.HasEdge(o.e1) || !c.g.HasEdge(o.e2) {
			continue
		}
		f := canonicalize(c.g, o.e1, o.e2)
		if f.key != key {
			continue
		}
		att := f.attachment()
		if nt == 0 {
			nt = c.gram.AddRule(ruleGraph(c.g, f))
			c.stats.Rounds++
		}
		if len(att) == 2 && c.edgeCount[edgeTriple{nt, att[0], att[1]}] > 0 {
			c.stats.SkippedDuplicates++
			continue
		}
		c.replaceOccurrence(oi, f, nt, att)
	}
}

// replaceOccurrence removes the two occurrence edges and the internal
// nodes, inserts the nonterminal edge, and updates occurrence lists.
func (c *compressor) replaceOccurrence(oi int, f *occForm, nt hypergraph.Label, att []hypergraph.NodeID) {
	o := c.occs[oi]
	for _, e := range [2]hypergraph.EdgeID{o.e1, o.e2} {
		for _, otherI := range c.occList[e] {
			if otherI == oi {
				continue
			}
			other := c.occs[otherI]
			if other.dead {
				continue
			}
			other.dead = true
			c.digrams[other.dig].count--
			c.queue.update(c.digrams, other.dig)
		}
		delete(c.occList, e)
		if ea := c.g.Att(e); len(ea) == 2 {
			c.edgeCount[edgeTriple{c.g.Label(e), ea[0], ea[1]}]--
		}
		c.g.RemoveEdge(e)
	}
	o.dead = true
	c.digrams[o.dig].count--

	for _, v := range f.removal() {
		c.g.RemoveNode(v)
		delete(c.avail, v)
	}

	id := c.g.AddEdge(nt, att...)
	if len(att) == 2 {
		c.edgeCount[edgeTriple{nt, att[0], att[1]}]++
	}
	c.stats.Replacements++

	for _, v := range att {
		c.pairNewEdge(id, v)
	}
	for pos, v := range att {
		if a := c.avail[v]; a != nil && a.built {
			c.availPush(a, effLabel(nt, pos), id)
		}
	}
}

// availPush makes edge id available under key l, inserting a new group
// in sorted position if needed; entries push onto the front.
func (c *compressor) availPush(a *avail, l uint64, id hypergraph.EdgeID) {
	for i, g := range a.groups {
		if g.l == l {
			g.entries = append([]hypergraph.EdgeID{id}, g.entries...)
			return
		}
		if g.l > l {
			ng := &availGroup{l: l, entries: []hypergraph.EdgeID{id}}
			a.groups = append(a.groups[:i], append([]*availGroup{ng}, a.groups[i:]...)...)
			return
		}
	}
	a.groups = append(a.groups, &availGroup{l: l, entries: []hypergraph.EdgeID{id}})
}

// pairNewEdge pairs nonterminal edge id with at most one candidate per
// effLabel group at node v, consuming candidates from the front of
// each group (every candidate is offered at most once).
func (c *compressor) pairNewEdge(id hypergraph.EdgeID, v hypergraph.NodeID) {
	a := c.avail[v]
	if a == nil {
		a = &avail{}
		c.avail[v] = a
	}
	if !a.built {
		a.built = true
		a.groups = c.groupIncident(v)
	}
	for _, g := range a.groups {
		for len(g.entries) > 0 {
			f := g.entries[0]
			g.entries = g.entries[1:]
			if f == id || !c.g.HasEdge(f) {
				continue
			}
			if di := c.tryCount(v, id, f); di >= 0 {
				c.queue.update(c.digrams, di)
				break
			}
		}
	}
}

// stripVirtualEdges deletes every virtual edge from the start graph
// and all right-hand sides.
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

// ruleGraph materializes the digram hypergraph for a canonical
// occurrence the straightforward way: New, two AddEdges over freshly
// mapped attachments, SetExt.
func ruleGraph(g *hypergraph.Graph, f *occForm) *hypergraph.Graph {
	rhs := hypergraph.New(len(f.locals))
	for _, e := range [2]hypergraph.EdgeID{f.a, f.b} {
		att := g.Att(e)
		mapped := make([]hypergraph.NodeID, len(att))
		for i, v := range att {
			j := indexOf(f.locals, v)
			if j < 0 {
				panic("reference: ruleGraph: node not local")
			}
			mapped[i] = hypergraph.NodeID(j + 1)
		}
		rhs.AddEdge(g.Label(e), mapped...)
	}
	ext := make([]hypergraph.NodeID, len(f.extLoc))
	for i, l := range f.extLoc {
		ext[i] = hypergraph.NodeID(l + 1)
	}
	rhs.SetExt(ext...)
	return rhs
}
