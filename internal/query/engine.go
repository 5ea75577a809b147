// Package query evaluates queries directly over SL-HR grammars
// without decompression (paper Sec. V):
//
//   - Node location: mapping a node ID of val(G) to its
//     G-representation, a path through the derivation (O(log ℓ + h)).
//   - Neighborhood queries (Prop. 4): in/out neighbors of a node in
//     O(log ℓ + n·h) for n neighbors.
//   - Reachability and distance (Thm. 6): (s,t)-queries in O(|G|)
//     via per-nonterminal skeletons. The engine keeps one skeleton,
//     the min-plus matrix of shortest path lengths between a rule's
//     external nodes; reachability is a finite entry.
//   - Speed-up queries evaluated in one bottom-up pass: number of
//     weakly connected components, minimum/maximum degree, node and
//     edge counts, the label histogram.
//
// The paper describes these algorithms but reports they were not
// implemented; this package implements and tests all of them.
//
// # Serving architecture
//
// The engine is built for grammar-resident serving: compile once,
// query from any number of goroutines (DESIGN.md §13). Construction
// is the compile phase — it derives every table the node numbering
// of val(G) depends on into dense rule-indexed slices and leaves the
// result immutable. Per-nonterminal summary layers (the min-plus
// skeletons, the component/degree/label aggregates) are instances of
// one bottom-up fold (analysis.go), memoized behind build-once guards
// and computed either eagerly (EngineOptions.Precompute) or on the
// first query that needs them; once built they are shared, lock-free,
// by all readers. All per-query mutable state lives in pooled scratch
// structs, and an optional bounded LRU (EngineOptions.CacheSize)
// short-circuits repeated Reachable/Distance/Neighbors calls.
package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// EngineOptions tune an Engine for its workload. The zero value —
// lazy memo layers, no result cache — matches the historical New
// behavior and is right for one-shot CLI queries; a long-lived server
// wants Precompute (pay the bottom-up passes at load time, before
// traffic) and a CacheSize matched to its hot query set.
type EngineOptions struct {
	// Precompute builds every memo layer (the min-plus skeletons
	// behind Reachable and Distance, component count, degree stats
	// for all three directions, label histogram) during construction,
	// so no query ever runs a bottom-up pass. Construction respects
	// the context passed to NewWithOptions/NewContext.
	Precompute bool
	// CacheSize bounds the query-result LRU in entries; 0 disables
	// caching. Cached entries are keyed on (operation, arguments), so
	// the cache is exact: it can only ever return what the engine
	// would recompute.
	CacheSize int
}

// Engine answers queries over one grammar. Building an Engine is the
// compile phase: one bottom-up pass derives the per-nonterminal node
// counts, per-rule derivation tables and start-graph block offsets
// into dense label-indexed slices, after which the engine is
// immutable — safe for unlimited concurrent readers. See the package
// comment for the serving architecture.
type Engine struct {
	g    *grammar.Grammar
	opts EngineOptions

	// nodeCounts[ruleIdx(A)] = number of nodes an A-edge derives.
	nodeCounts []int64
	// rules[ruleIdx(A)] holds the per-rule derivation table.
	rules []ruleInfo
	// bottomUp caches the ≤NT order every bottom-up pass walks.
	bottomUp []hypergraph.Label

	// m = |V_S|; derived IDs 1..m are start-graph nodes.
	m int64
	// top-level nonterminal edges of S in canonical derivation order,
	// with the base offset of each edge's contiguous derived block.
	topEdges []hypergraph.EdgeID
	topBase  []int64
	total    int64 // |val(G)|V
	edges    int64 // terminal edges of val(G)

	// Memo layers: computed once (under a lock, retried if canceled),
	// then shared lock-free. See memo.go for the safety argument.
	dskel memo[[][][]int64] // min-plus skeletons per rule
	comp  memo[int64]       // weakly connected component count
	deg   memo[[3][2]int64] // {min, max} degree per Direction
	hist  memo[map[hypergraph.Label]int64]

	pool  sync.Pool // *scratch; see scratch.go
	cache *lru      // nil when CacheSize == 0
}

// ruleInfo caches the layout of one rule's derived block: internal
// nodes in ascending ID order (their block positions), and nested
// nonterminal edges with prefix sums of their derived node counts.
type ruleInfo struct {
	rhs      *hypergraph.Graph
	internal []hypergraph.NodeID // ascending internal node IDs
	// intIndex[v] = position of internal node v in the block; dense,
	// indexed by rule NodeID (valid only for internal nodes).
	intIndex  []int64
	ntEdges   []hypergraph.EdgeID // ascending edge IDs
	ntOffsets []int64             // block offset of each nested edge
	derived   int64               // total nodes derived by one instance
}

// ruleIdx maps a nonterminal label to its dense index into
// Engine.rules / Engine.nodeCounts.
func (e *Engine) ruleIdx(l hypergraph.Label) int {
	return int(l - e.g.Terminals - 1)
}

// rule returns the derivation table of nonterminal l.
func (e *Engine) rule(l hypergraph.Label) *ruleInfo {
	return &e.rules[e.ruleIdx(l)]
}

// count returns the derived node count of nonterminal l.
func (e *Engine) count(l hypergraph.Label) int64 {
	return e.nodeCounts[e.ruleIdx(l)]
}

// New builds a query engine with default options. The grammar must be
// valid; it is shared, not copied, and must not be mutated while the
// engine is in use (the engine itself never mutates it).
func New(g *grammar.Grammar) (*Engine, error) {
	return NewContext(context.Background(), g)
}

// NewContext is New with cooperative cancellation: the bottom-up
// precomputation polls ctx between rules, so building an engine over
// an adversarial many-rule grammar respects a deadline.
func NewContext(ctx context.Context, g *grammar.Grammar) (*Engine, error) {
	return NewWithOptions(ctx, g, EngineOptions{})
}

// NewWithOptions is NewContext with explicit EngineOptions — the
// entry point for long-lived concurrent serving.
func NewWithOptions(ctx context.Context, g *grammar.Grammar, opts EngineOptions) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	e := &Engine{
		g:    g,
		opts: opts,
		m:    int64(g.Start.NumNodes()),
	}
	if opts.CacheSize > 0 {
		e.cache = newLRU(opts.CacheSize)
	}
	tk := ticker{ctx: ctx}

	// Bottom-up ≤NT order, computed once and reused by every memo
	// layer (BottomUpOrder re-derives it per call).
	e.bottomUp = g.BottomUpOrder()

	// Dense derived node/edge counts (the map-shaped
	// grammar.DerivedNodeCounts, flattened to one cache line per
	// rule), saturating like the grammar's own analytic sizes.
	nr := g.NumRules()
	e.nodeCounts = make([]int64, nr)
	edgeCounts := make([]int64, nr)
	for _, nt := range e.bottomUp {
		if err := tk.check("query: build engine"); err != nil {
			return nil, err
		}
		r := g.Rule(nt)
		n := int64(r.NumNodes() - r.Rank())
		var ec int64
		for id := range r.EdgesSeq() {
			if lab := r.Label(id); g.IsTerminal(lab) {
				ec = govern.SatAdd(ec, 1)
			} else {
				n = govern.SatAdd(n, e.nodeCounts[e.ruleIdx(lab)])
				ec = govern.SatAdd(ec, edgeCounts[e.ruleIdx(lab)])
			}
		}
		e.nodeCounts[e.ruleIdx(nt)] = n
		edgeCounts[e.ruleIdx(nt)] = ec
	}

	// Per-rule derivation tables.
	e.rules = make([]ruleInfo, nr)
	for _, nt := range g.Nonterminals() {
		if err := tk.check("query: build engine"); err != nil {
			return nil, err
		}
		rhs := g.Rule(nt)
		ri := &e.rules[e.ruleIdx(nt)]
		ri.rhs = rhs
		ri.intIndex = make([]int64, int(rhs.MaxNodeID())+1)
		for _, v := range rhs.Nodes() {
			if !rhs.IsExternal(v) {
				ri.intIndex[v] = int64(len(ri.internal))
				ri.internal = append(ri.internal, v)
			}
		}
		off := int64(len(ri.internal))
		for id := range rhs.EdgesSeq() {
			if lab := rhs.Label(id); !g.IsTerminal(lab) {
				ri.ntEdges = append(ri.ntEdges, id)
				ri.ntOffsets = append(ri.ntOffsets, off)
				off = govern.SatAdd(off, e.count(lab))
			}
		}
		ri.derived = off
	}

	// Start graph: canonical order = (label, attachment) ascending,
	// matching grammar.Derive.
	var nts []hypergraph.EdgeID
	for id := range g.Start.EdgesSeq() {
		if !g.IsTerminal(g.Start.Label(id)) {
			nts = append(nts, id)
		}
	}
	s := g.Start
	sort.Slice(nts, func(i, j int) bool {
		if la, lb := s.Label(nts[i]), s.Label(nts[j]); la != lb {
			return la < lb
		}
		a, b := s.Att(nts[i]), s.Att(nts[j])
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	base := e.m
	e.edges = 0
	for id := range g.Start.EdgesSeq() {
		if lab := g.Start.Label(id); g.IsTerminal(lab) {
			e.edges = govern.SatAdd(e.edges, 1)
		} else {
			e.edges = govern.SatAdd(e.edges, edgeCounts[e.ruleIdx(lab)])
		}
	}
	for _, id := range nts {
		e.topEdges = append(e.topEdges, id)
		e.topBase = append(e.topBase, base)
		base = govern.SatAdd(base, e.count(s.Label(id)))
	}
	e.total = base
	if e.total == math.MaxInt64 {
		// Derived IDs are int64; a saturated total means val(G) has
		// too many nodes to number.
		return nil, fmt.Errorf("query: %w", &govern.LimitError{
			Resource: "derived nodes", Demanded: math.MaxInt64, Allowed: math.MaxInt64 - 1})
	}

	// Scrub the incidence chains of every graph the queries will
	// traverse: pruning leaves tombstoned slots behind, and the first
	// IncidentSeq walk would unlink them — a write. One warm pass here
	// (still single-goroutine) compacts every chain, and the query
	// phase then uses the pure IncidentSeqRO traversal, so concurrent
	// readers never see a chain mutate underneath them.
	var nodeBuf []hypergraph.NodeID
	scrub := func(h *hypergraph.Graph) {
		nodeBuf = h.AppendNodes(nodeBuf[:0])
		for _, v := range nodeBuf {
			for range h.IncidentSeq(v) {
			}
		}
	}
	scrub(g.Start)
	for _, nt := range e.bottomUp {
		if err := tk.check("query: build engine"); err != nil {
			return nil, err
		}
		scrub(g.Rule(nt))
	}

	if opts.Precompute {
		if _, err := e.distSkeletons(ctx); err != nil {
			return nil, err
		}
		e.ComponentCount()
		// One degree pass memoizes all three directions.
		if _, _, err := e.DegreeStats(Out); err != nil {
			return nil, err
		}
		e.LabelHistogram()
	}
	return e, nil
}

// NumNodes returns |val(G)|V: valid node IDs are 1..NumNodes().
func (e *Engine) NumNodes() int64 { return e.total }

// NumEdges returns the number of terminal edges of val(G).
func (e *Engine) NumEdges() int64 { return e.edges }

// Stats is a point-in-time snapshot of a served engine, for
// monitoring endpoints.
type Stats struct {
	Nodes, Edges int64
	Rules        int
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int
}

// EngineStats reports the engine's derived sizes and, when a result
// cache is configured, its hit/miss counters.
func (e *Engine) EngineStats() Stats {
	st := Stats{Nodes: e.total, Edges: e.edges, Rules: len(e.rules)}
	if e.cache != nil {
		st.CacheHits, st.CacheMisses, st.CacheEntries = e.cache.stats()
	}
	return st
}

// Location is the G-representation of a derived node: a path of
// nonterminal edges (Path[0] in the start graph, Path[i] in the rule
// of Path[i-1]'s label) ending at node Node of the innermost graph.
// An empty path means Node is a start-graph node.
type Location struct {
	Path []hypergraph.EdgeID
	// Graphs[i] is the graph Path[i] lives in: Graphs[0] = S, then
	// right-hand sides. len(Graphs) = len(Path)+1; the last entry is
	// the graph containing Node.
	Graphs []*hypergraph.Graph
	// Bases[i] is the derived-ID block base of level i (Bases[0] = 0
	// stands for the start graph, whose nodes are their own IDs).
	Bases []int64
	Node  hypergraph.NodeID
}

// Locate computes the G-representation of derived node ID k in
// O(log ℓ + h) time (binary search over the start graph's nonterminal
// edges, then one descent through the rules).
func (e *Engine) Locate(k int64) (Location, error) {
	var loc Location
	if err := e.locateInto(&loc, k); err != nil {
		return Location{}, err
	}
	return loc, nil
}

// locateInto is Locate resolving into a caller-owned Location,
// reusing its slices — the allocation-free form the pooled query
// scratch runs on.
func (e *Engine) locateInto(loc *Location, k int64) error {
	if k < 1 || k > e.total {
		return fmt.Errorf("query: node ID %d out of range 1..%d", k, e.total)
	}
	loc.Path = loc.Path[:0]
	loc.Graphs = append(loc.Graphs[:0], e.g.Start)
	loc.Bases = append(loc.Bases[:0], 0)
	if k <= e.m {
		loc.Node = hypergraph.NodeID(k)
		return nil
	}
	// Binary search: last top edge with base < k.
	i := sort.Search(len(e.topBase), func(i int) bool { return e.topBase[i] >= k }) - 1
	h := e.g.Start
	edge := e.topEdges[i]
	base := e.topBase[i]
	for {
		loc.Path = append(loc.Path, edge)
		ri := e.rule(h.Label(edge))
		loc.Graphs = append(loc.Graphs, ri.rhs)
		loc.Bases = append(loc.Bases, base)
		off := k - base // 1-based offset within the block
		if off <= int64(len(ri.internal)) {
			loc.Node = ri.internal[off-1]
			return nil
		}
		// Find the nested edge whose sub-block contains off-1.
		j := sort.Search(len(ri.ntOffsets), func(j int) bool { return ri.ntOffsets[j] >= off }) - 1
		h = ri.rhs
		edge = ri.ntEdges[j]
		base += ri.ntOffsets[j]
	}
}

// resolveUp returns the derived ID of node v of level i of loc
// (following external nodes up through the attachment chain until an
// internal or start-graph node is reached).
func (e *Engine) resolveUp(loc *Location, i int, v hypergraph.NodeID) int64 {
	for {
		if i == 0 {
			return int64(v) // start-graph nodes are their own IDs
		}
		h := loc.Graphs[i]
		if !h.IsExternal(v) {
			ri := e.rule(loc.Graphs[i-1].Label(loc.Path[i-1]))
			return loc.Bases[i] + ri.intIndex[v] + 1
		}
		// External: follow the attachment of the edge one level up.
		v = loc.Graphs[i-1].Att(loc.Path[i-1])[h.ExtIndex(v)]
		i--
	}
}

// childBase returns the derived-ID block base of nested nonterminal
// edge id of rule label lab, given the parent block base.
func (e *Engine) childBase(parentBase int64, lab hypergraph.Label, id hypergraph.EdgeID) int64 {
	ri := e.rule(lab)
	for j, ne := range ri.ntEdges {
		if ne == id {
			return parentBase + ri.ntOffsets[j]
		}
	}
	panic("query: edge is not a nonterminal edge of the rule")
}

// topEdgeBase returns the block base of a top-level nonterminal edge.
func (e *Engine) topEdgeBase(id hypergraph.EdgeID) int64 {
	for i, te := range e.topEdges {
		if te == id {
			return e.topBase[i]
		}
	}
	panic("query: edge is not a top-level nonterminal edge")
}
