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
//     external nodes; reachability is a finite entry. For Reachable
//     the engine also condenses S′, the start graph with every
//     nonterminal edge replaced by its skeleton arcs, at compile
//     time: two start nodes are answered by a DFS over the condensed
//     DAG, and any other pair lays out only the right-hand sides
//     along its two G-representations, joined by at most rank²
//     S′-closure arcs between their top-level attachment nodes.
//   - Speed-up queries evaluated in one pass over the ≤NT order:
//     number of weakly connected components, minimum/maximum degree,
//     node and edge counts, the label histogram.
//
// The paper describes these algorithms but reports they were not
// implemented; this package implements and tests all of them.
//
// # Serving architecture
//
// The engine is built for grammar-resident serving: compile once,
// query from any number of goroutines (DESIGN.md §13). Construction
// is the compile phase and the engine's one configuration. It derives
// every table the node numbering of val(G) depends on into dense
// rule-indexed slices, from the grammar's own derived counts, and
// builds every query layer: the min-plus skeletons and the component
// and degree aggregates, each one instance of the bottom-up fold
// (analysis.go), and the label histogram. After that the engine
// is immutable and shared lock-free by all readers; all per-query
// mutable state lives in pooled scratch structs (scratch.go).
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

// EngineOptions is kept so that existing callers still compile. The
// engine has one configuration: NewWithOptions builds every query
// layer whatever the options say.
type EngineOptions struct {
	// Deprecated: every query layer is always built during
	// construction; the field is ignored.
	Precompute bool
}

// Engine answers queries over one grammar. Building an Engine is the
// compile phase: bottom-up passes derive the per-rule derivation
// tables, the start-graph block offsets and every query layer, after
// which the engine is immutable — safe for unlimited concurrent
// readers. See the package comment for the serving architecture.
type Engine struct {
	g *grammar.Grammar

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

	// Query layers, one fold each (analysis.go, product.go), and the
	// condensation of S′ built from the skeletons (analysis.go).
	skel  [][]int64   // min-plus skeletons per rule, rank² flat
	comps int64       // weakly connected component count
	deg   [3][2]int64 // {min, max} degree per Direction; zero if no nodes
	hist  map[hypergraph.Label]int64
	// S′ is the start graph with every nonterminal edge replaced by
	// the finite entries of its skeleton. scc[x] is the SCC of start
	// node x in Tarjan's completion order, and SCC c's arcs to other
	// SCCs are sccTo[sccOff[c]:sccOff[c+1]]. Every such arc runs from
	// a higher index to a lower one.
	scc, sccOff, sccTo []int32

	pool sync.Pool // *scratch; see scratch.go
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
}

// ruleIdx maps a nonterminal label to its dense index into
// Engine.rules.
func (e *Engine) ruleIdx(l hypergraph.Label) int {
	return int(l - e.g.Terminals - 1)
}

// rule returns the derivation table of nonterminal l.
func (e *Engine) rule(l hypergraph.Label) *ruleInfo {
	return &e.rules[e.ruleIdx(l)]
}

// New builds a query engine. The grammar must be valid; it is shared,
// not copied, and must not be mutated while the engine is in use (the
// engine itself never mutates it).
func New(g *grammar.Grammar) (*Engine, error) {
	return NewContext(context.Background(), g)
}

// NewContext is New with cooperative cancellation: the bottom-up
// passes poll ctx between rules and during the skeletons' searches,
// so building an engine over an adversarial many-rule grammar
// respects a deadline.
func NewContext(ctx context.Context, g *grammar.Grammar) (*Engine, error) {
	bottomUp, err := g.BottomUpOrder()
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	const op = "query: build engine"
	tk := ticker{ctx: ctx}
	nr := g.NumRules()
	e := &Engine{
		g:        g,
		rules:    make([]ruleInfo, nr),
		bottomUp: bottomUp,
		m:        int64(g.Start.NumNodes()),
	}

	// Derived node and edge counts, the grammar's flat table; index
	// nr holds val(G)'s.
	nodes, edges := g.DerivedCounts(bottomUp)
	e.total, e.edges = nodes[nr], edges[nr]
	if e.total == math.MaxInt64 {
		// Derived IDs are int64; a saturated total means val(G) has
		// too many nodes to number.
		return nil, fmt.Errorf("query: %w", &govern.LimitError{
			Resource: "derived nodes", Demanded: math.MaxInt64, Allowed: math.MaxInt64 - 1})
	}

	// Per-rule derivation tables.
	for _, nt := range g.Nonterminals() {
		if err := tk.check(op); err != nil {
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
				off = govern.SatAdd(off, nodes[e.ruleIdx(lab)])
			}
		}
	}

	// Start graph: the canonical order grammar.Derive numbers by.
	s := g.Start
	e.topEdges = g.SortedNTEdges(s)
	base := e.m
	for _, id := range e.topEdges {
		e.topBase = append(e.topBase, base)
		base = govern.SatAdd(base, nodes[e.ruleIdx(s.Label(id))])
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
		if err := tk.check(op); err != nil {
			return nil, err
		}
		scrub(g.Rule(nt))
	}

	// The query layers.
	if e.skel, err = e.skeletons(&tk, op, &anyLabel); err != nil {
		return nil, err
	}
	if e.comps, err = e.componentCount(&tk); err != nil {
		return nil, err
	}
	if e.deg, err = e.degreeStats(&tk); err != nil {
		return nil, err
	}
	if e.hist, err = e.labelHistogram(&tk); err != nil {
		return nil, err
	}
	if err := e.condense(&tk, op); err != nil {
		return nil, err
	}
	return e, nil
}

// NewWithOptions is NewContext; the options are ignored (see
// EngineOptions).
func NewWithOptions(ctx context.Context, g *grammar.Grammar, _ EngineOptions) (*Engine, error) {
	return NewContext(ctx, g)
}

// NumNodes returns |val(G)|V: valid node IDs are 1..NumNodes().
func (e *Engine) NumNodes() int64 { return e.total }

// NumEdges returns the number of terminal edges of val(G).
func (e *Engine) NumEdges() int64 { return e.edges }

// Stats describes a served engine, for monitoring endpoints.
type Stats struct {
	Nodes, Edges int64
	Rules        int
}

// EngineStats reports the engine's derived sizes.
func (e *Engine) EngineStats() Stats {
	return Stats{Nodes: e.total, Edges: e.edges, Rules: len(e.rules)}
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
	if err := e.checkNode(k); err != nil {
		return err
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

// checkNode rejects k unless it is a derived node ID.
func (e *Engine) checkNode(k int64) error {
	if k < 1 || k > e.total {
		return fmt.Errorf("query: node ID %d out of range 1..%d", k, e.total)
	}
	return nil
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
