package grammar

import (
	"context"
	"fmt"
	"math"

	"graphrepair/internal/buf"
	"graphrepair/internal/faultinject"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// DerivedCounts returns the grammar's flat derived-count table, given
// its bottom-up order (see BottomUpOrder): nodes[i] and edges[i] count
// the nodes and terminal edges one edge of nonterminal Terminals+1+i
// derives (the internal nodes of its right-hand side, or its terminal
// edges, plus those its nonterminal edges derive), and index
// NumRules() holds the counts of val(G) itself, the start graph taken
// as a rank-0 right-hand side. The node counts are the basis of the
// deterministic node numbering of val(G).
//
// Counts saturate at MaxInt64: SL-HR grammars are exponentially
// succinct, so a grammar a few hundred bytes long can derive 2^100
// nodes, and wrapping arithmetic would let such a bomb masquerade as
// a small graph (the analytic limit checks depend on these counts).
func (g *Grammar) DerivedCounts(order []hypergraph.Label) (nodes, edges []int64) {
	nr := len(g.rules)
	nodes, edges = make([]int64, nr+1), make([]int64, nr+1)
	count := func(h *hypergraph.Graph, i int) {
		n, m := int64(h.NumNodes()-h.Rank()), int64(0)
		for id := range h.EdgesSeq() {
			if lab := h.Label(id); g.IsTerminal(lab) {
				m = govern.SatAdd(m, 1)
			} else {
				j := g.ruleIndex(lab)
				n = govern.SatAdd(n, nodes[j])
				m = govern.SatAdd(m, edges[j])
			}
		}
		nodes[i], edges[i] = n, m
	}
	for _, l := range order {
		count(g.Rule(l), g.ruleIndex(l))
	}
	count(g.Start, nr)
	return nodes, edges
}

// DerivedSize returns (|val(G)|V, number of terminal edges of val(G))
// without materializing the derived graph, in O(|G|). Both counts
// saturate at MaxInt64. This is the analytic pre-check behind every
// derivation limit: a decompression bomb is rejected from rule sizes
// alone, before a single node is allocated. The grammar must be valid.
func (g *Grammar) DerivedSize() (nodes, edges int64) {
	order, err := g.BottomUpOrder()
	if err != nil {
		panic(err)
	}
	nc, ec := g.DerivedCounts(order)
	return nc[len(g.rules)], ec[len(g.rules)]
}

// Derive computes val(G) with an optional node cap and no
// cancellation; it is DeriveContext with a background context.
// maxNodes <= 0 means no limit.
func (g *Grammar) Derive(maxNodes int64) (*hypergraph.Graph, error) {
	return g.DeriveContext(context.Background(), govern.Limits{MaxNodes: maxNodes})
}

// deriveCheckStride bounds how many rule expansions may pass between
// two context polls.
const deriveCheckStride = 64

// idLimits is the largest val(G) a hypergraph.Graph can hold: node IDs
// are int32, and so are the attachment and incidence slots, two per
// (rank-2) terminal edge.
var idLimits = govern.Limits{MaxNodes: math.MaxInt32, MaxEdges: math.MaxInt32 / 2}

// DeriveContext computes val(G), the canonical derived hypergraph,
// following the paper's deterministic numbering: start-graph nodes
// take IDs 1..m in ascending order; nonterminal edges are then derived
// in canonical order, each assigning the next free IDs to the internal
// nodes of its right-hand side (ascending rule-node order) before
// deriving the nested nonterminal edges in ascending rule-edge order.
// The derived subgraph of each nonterminal edge thus occupies a
// contiguous ID block, which the query package exploits.
//
// The expansion runs on an explicit frame stack, never recursing, and
// maps rule nodes through one flat table per rule: ≤NT is acyclic, so
// a rule is open at most once on the stack. The output graph is
// reserved once, from the derived counts, so it never regrows.
//
// Resource governance (SL-HR grammars can be exponentially smaller
// than val(G), so an unlimited derivation of an untrusted grammar is
// a decompression bomb):
//
//   - lim.MaxNodes / lim.MaxEdges are enforced analytically: the
//     derived size is computed bottom-up from rule sizes in O(|G|)
//     and an over-budget grammar is rejected with a *LimitError
//     before anything is materialized. So is a val(G) too large for
//     int32 node IDs, whatever lim says.
//   - ctx is polled at rule-expansion boundaries; cancellation
//     surfaces as a *CanceledError wrapping ErrCanceled and the
//     context's error.
func (g *Grammar) DeriveContext(ctx context.Context, lim govern.Limits) (*hypergraph.Graph, error) {
	order, err := g.BottomUpOrder()
	if err != nil {
		return nil, govern.Corrupt(err)
	}
	nc, ec := g.DerivedCounts(order)
	nr := len(g.rules)
	nodes, edges := nc[nr], ec[nr]
	if err := lim.CheckSize(nodes, edges); err != nil {
		return nil, err
	}
	if err := idLimits.CheckSize(nodes, edges); err != nil {
		return nil, err
	}

	// tab[off[i]:off[i+1]] maps the node IDs of rule i to out-graph
	// IDs, and tab[off[nr]:] those of the start graph.
	off := make([]int, nr+2)
	for i, r := range g.rules {
		off[i+1] = off[i] + int(r.MaxNodeID()) + 1
	}
	off[nr+1] = off[nr] + int(g.Start.MaxNodeID()) + 1
	d := &deriver{
		g:     g,
		ctx:   ctx,
		out:   hypergraph.NewReserved(int(nodes), int(edges), 2*int(edges), 0),
		tab:   make([]hypergraph.NodeID, off[nr+1]),
		off:   off,
		stack: make([]frame, 0, nr),
	}
	// Start-graph nodes take 1..m in ascending ID order, then its
	// terminal edges go in ascending edge order.
	start := d.table(nr)
	for v := hypergraph.NodeID(1); v <= g.Start.MaxNodeID(); v++ {
		if g.Start.HasNode(v) {
			d.next++
			start[v] = d.next
		}
	}
	d.terminals(g.Start, start)
	// Then the nonterminal edges in canonical (label, attachment)
	// order, each expanded depth-first.
	for _, id := range g.SortedNTEdges(g.Start) {
		if err := d.expand(start, g.Start, id); err != nil {
			return nil, err
		}
		for len(d.stack) > 0 {
			f := &d.stack[len(d.stack)-1]
			rhs := g.rules[f.rule]
			id := g.nextNT(rhs, f.next)
			if id == rhs.MaxEdgeID() {
				d.stack = d.stack[:len(d.stack)-1]
				continue
			}
			f.next = id + 1
			if err := d.expand(d.table(int(f.rule)), rhs, id); err != nil {
				return nil, err
			}
		}
	}
	return d.out, nil
}

// frame is one open rule instance of a derivation: rule index and the
// next right-hand-side edge to scan for nested nonterminals.
type frame struct {
	rule int32
	next hypergraph.EdgeID
}

// deriver is the state of one DeriveContext.
type deriver struct {
	g     *Grammar
	ctx   context.Context
	out   *hypergraph.Graph
	tab   []hypergraph.NodeID // per rule, then start: node → out node
	off   []int               // rule i's table is tab[off[i]:off[i+1]]
	next  hypergraph.NodeID   // last out node ID handed out
	stack []frame
	tick  int // amortizes the context poll across expansions
}

// table returns the node table of rule index i (the start graph's for
// i = NumRules()).
func (d *deriver) table(i int) []hypergraph.NodeID { return d.tab[d.off[i]:d.off[i+1]] }

// terminals adds h's terminal edges, in ascending edge order, mapped
// through h's node table.
func (d *deriver) terminals(h *hypergraph.Graph, tab []hypergraph.NodeID) {
	for id := range h.EdgesSeq() {
		if lab := h.Label(id); d.g.IsTerminal(lab) {
			att := h.Att(id) // rank 2, as BottomUpOrder checked
			d.out.AddEdge(lab, tab[att[0]], tab[att[1]])
		}
	}
}

// expand opens an instance of nonterminal edge id of host graph h,
// whose node table is ptab: it binds the rule's external nodes to the
// edge's mapped attachment, numbers its internal nodes, adds its
// terminal edges and pushes its frame.
func (d *deriver) expand(ptab []hypergraph.NodeID, h *hypergraph.Graph, id hypergraph.EdgeID) error {
	lab := h.Label(id)
	if d.tick++; d.tick%deriveCheckStride == 0 {
		if err := govern.Checkpoint(d.ctx, "grammar: derive"); err != nil {
			return err
		}
	}
	if faultinject.Enabled {
		if err := faultinject.Hit(faultinject.GrammarDerive); err != nil {
			return fmt.Errorf("grammar: expanding rule %d: %w", lab, err)
		}
	}
	i := d.g.ruleIndex(lab)
	rhs := d.g.rules[i]
	tab := d.table(i)
	for k, v := range h.Att(id) {
		tab[rhs.Ext()[k]] = ptab[v]
	}
	for v := hypergraph.NodeID(1); v <= rhs.MaxNodeID(); v++ {
		if rhs.HasNode(v) && !rhs.IsExternal(v) {
			d.next++
			tab[v] = d.next
		}
	}
	d.terminals(rhs, tab)
	d.stack = append(d.stack, frame{rule: int32(i)})
	return nil
}

// Inline derives nonterminal edge id of host graph h in place: the
// edge is removed, internal nodes of the rule get fresh host node IDs,
// external nodes merge with the edge's attachment, and the rule's
// edges are copied in. Terminal-duplicate creation is permitted here
// (pruning may produce rules with parallel edges only if the input had
// them). Returns the IDs of the copied-in edges; the slice aliases
// grammar-owned scratch and is valid only until the next Inline or
// Prune call on g.
//
// The node mapping and attachment buffers come from the grammar's
// scratch arena, so the only steady-state allocations are the ones
// h.AddNode/AddEdge make to grow the host graph itself.
func (g *Grammar) Inline(h *hypergraph.Graph, id hypergraph.EdgeID) []hypergraph.EdgeID {
	lab := h.Label(id)
	rhs := g.Rule(lab)
	if rhs == nil {
		panic(fmt.Sprintf("grammar: Inline: label %d has no rule", lab))
	}
	s := g.scr()
	s.att = append(s.att[:0], h.Att(id)...)
	h.RemoveEdge(id)
	// Batch-grow the host tables up front: the rule's internal-node
	// count bounds the AddNode calls below, and its edge/attachment
	// totals bound the AddEdge copies, so the host never grows one
	// node or edge at a time.
	if internal := rhs.NumNodes() - rhs.Rank(); internal > 0 {
		h.ReserveNodes(internal)
	}
	attLen := 0
	for rid := range rhs.EdgesSeq() {
		attLen += len(rhs.Att(rid))
	}
	h.Reserve(rhs.NumEdges(), attLen)
	// m maps rule nodes to host nodes; flat, indexed by rule NodeID.
	// Zero (an invalid host ID) marks unmapped slots, so stale entries
	// from the previous Inline must be cleared.
	s.nodeMap = buf.GrowClear(s.nodeMap, int(rhs.MaxNodeID())+1)
	m := s.nodeMap
	for i, x := range rhs.Ext() {
		m[x] = s.att[i]
	}
	for v := hypergraph.NodeID(1); v <= rhs.MaxNodeID(); v++ {
		if rhs.HasNode(v) && !rhs.IsExternal(v) {
			m[v] = h.AddNode()
		}
	}
	added := s.added[:0]
	for rid := range rhs.EdgesSeq() {
		mapped := s.mapped[:0]
		for _, v := range rhs.Att(rid) {
			mapped = append(mapped, m[v])
		}
		s.mapped = mapped
		added = append(added, h.AddEdge(rhs.Label(rid), mapped...))
	}
	s.added = added
	return added
}
