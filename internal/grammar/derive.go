package grammar

import (
	"context"
	"fmt"

	"graphrepair/internal/buf"
	"graphrepair/internal/faultinject"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// derivedCounts returns, for every nonterminal A, the number of nodes
// and of terminal edges an A-edge derives: the internal nodes of
// rhs(A), or its terminal edges, plus, recursively, those derived by
// the nonterminal edges of rhs(A). The node counts are the basis of
// the deterministic node numbering of val(G). The grammar must be
// valid.
//
// Counts saturate at MaxInt64: SL-HR grammars are exponentially
// succinct, so a grammar a few hundred bytes long can derive 2^100
// nodes, and wrapping arithmetic would let such a bomb masquerade as
// a small graph (the analytic limit checks depend on these counts).
func (g *Grammar) derivedCounts() (nodes, edges map[hypergraph.Label]int64) {
	order, err := g.bottomUpOrder()
	if err != nil {
		panic(err)
	}
	nodes = make(map[hypergraph.Label]int64, len(order))
	edges = make(map[hypergraph.Label]int64, len(order))
	for _, l := range order {
		r := g.Rule(l)
		n, m := int64(r.NumNodes()-r.Rank()), int64(0)
		for id := range r.EdgesSeq() {
			if lab := r.Label(id); g.IsTerminal(lab) {
				m = govern.SatAdd(m, 1)
			} else {
				n = govern.SatAdd(n, nodes[lab])
				m = govern.SatAdd(m, edges[lab])
			}
		}
		nodes[l], edges[l] = n, m
	}
	return nodes, edges
}

// DerivedSize returns (|val(G)|V, number of terminal edges of val(G))
// without materializing the derived graph, in O(|G|). Both counts
// saturate at MaxInt64. This is the analytic pre-check behind every
// derivation limit: a decompression bomb is rejected from rule sizes
// alone, before a single node is allocated.
func (g *Grammar) DerivedSize() (nodes, edges int64) {
	nc, ec := g.derivedCounts()
	nodes = int64(g.Start.NumNodes())
	for id := range g.Start.EdgesSeq() {
		if lab := g.Start.Label(id); g.IsTerminal(lab) {
			edges = govern.SatAdd(edges, 1)
		} else {
			nodes = govern.SatAdd(nodes, nc[lab])
			edges = govern.SatAdd(edges, ec[lab])
		}
	}
	return nodes, edges
}

// checkLimits runs the analytic size pre-check against lim.
func (g *Grammar) checkLimits(lim govern.Limits) error {
	if lim.MaxNodes <= 0 && lim.MaxEdges <= 0 {
		return nil
	}
	nodes, edges := g.DerivedSize()
	if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
		return &govern.LimitError{Resource: "derived nodes", Demanded: nodes, Allowed: lim.MaxNodes}
	}
	if lim.MaxEdges > 0 && edges > lim.MaxEdges {
		return &govern.LimitError{Resource: "derived edges", Demanded: edges, Allowed: lim.MaxEdges}
	}
	return nil
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

// DeriveContext computes val(G), the canonical derived hypergraph,
// following the paper's deterministic numbering: start-graph nodes
// take IDs 1..m in ascending order; nonterminal edges are then derived
// in canonical order, each assigning the next free IDs to the internal
// nodes of its right-hand side (ascending rule-node order) before
// recursively deriving the nested nonterminal edges in ascending
// rule-edge order. The derived subgraph of each nonterminal edge thus
// occupies a contiguous ID block, which the query package exploits.
//
// Resource governance (SL-HR grammars can be exponentially smaller
// than val(G), so an unlimited derivation of an untrusted grammar is
// a decompression bomb):
//
//   - lim.MaxNodes / lim.MaxEdges are enforced analytically: the
//     derived size is computed bottom-up from rule sizes in O(|G|)
//     and an over-budget grammar is rejected with a *LimitError
//     before anything is materialized.
//   - ctx is polled at rule-expansion boundaries; cancellation
//     surfaces as a *CanceledError wrapping ErrCanceled and the
//     context's error.
func (g *Grammar) DeriveContext(ctx context.Context, lim govern.Limits) (*hypergraph.Graph, error) {
	if err := g.checkLimits(lim); err != nil {
		return nil, err
	}

	out := hypergraph.New(0)
	// Map start-graph nodes to 1..m in ascending ID order.
	sNodes := g.Start.Nodes()
	sMap := make(map[hypergraph.NodeID]hypergraph.NodeID, len(sNodes))
	for _, v := range sNodes {
		sMap[v] = out.AddNode()
	}

	// expand derives one nonterminal edge instance: att holds the
	// out-graph nodes the instance is attached to. tick amortizes the
	// context poll across expansions.
	tick := 0
	var expand func(label hypergraph.Label, att []hypergraph.NodeID) error
	expand = func(label hypergraph.Label, att []hypergraph.NodeID) error {
		if tick++; tick%deriveCheckStride == 0 {
			if err := govern.Checkpoint(ctx, "grammar: derive"); err != nil {
				return err
			}
		}
		if faultinject.Enabled {
			if err := faultinject.Hit(faultinject.GrammarDerive); err != nil {
				return fmt.Errorf("grammar: expanding rule %d: %w", label, err)
			}
		}
		rhs := g.Rule(label)
		if rhs == nil {
			return govern.Corrupt(fmt.Errorf("grammar: derive: label %d has no rule", label))
		}
		if len(att) != rhs.Rank() {
			return govern.Corrupt(fmt.Errorf("grammar: derive: rule %d has rank %d, edge attaches %d nodes",
				label, rhs.Rank(), len(att)))
		}
		m := make(map[hypergraph.NodeID]hypergraph.NodeID, rhs.NumNodes())
		for i, x := range rhs.Ext() {
			m[x] = att[i]
		}
		for _, v := range rhs.Nodes() {
			if !rhs.IsExternal(v) {
				m[v] = out.AddNode()
			}
		}
		for id := range rhs.EdgesSeq() {
			if lab := rhs.Label(id); g.IsTerminal(lab) {
				att := rhs.Att(id)
				mapped := make([]hypergraph.NodeID, len(att))
				for i, v := range att {
					mapped[i] = m[v]
				}
				out.AddEdge(lab, mapped...)
			}
		}
		// Nested nonterminals in ascending rule-edge order.
		for id := range rhs.EdgesSeq() {
			if lab := rhs.Label(id); !g.IsTerminal(lab) {
				att := rhs.Att(id)
				mapped := make([]hypergraph.NodeID, len(att))
				for i, v := range att {
					mapped[i] = m[v]
				}
				if err := expand(lab, mapped); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Terminal edges of the start graph first, in ascending edge order.
	for id := range g.Start.EdgesSeq() {
		if lab := g.Start.Label(id); g.IsTerminal(lab) {
			att := g.Start.Att(id)
			mapped := make([]hypergraph.NodeID, len(att))
			for i, v := range att {
				mapped[i] = sMap[v]
			}
			out.AddEdge(lab, mapped...)
		}
	}
	// Then nonterminal edges in canonical (label, attachment) order.
	for _, id := range g.SortedNTEdges(g.Start) {
		att := g.Start.Att(id)
		mapped := make([]hypergraph.NodeID, len(att))
		for i, v := range att {
			mapped[i] = sMap[v]
		}
		if err := expand(g.Start.Label(id), mapped); err != nil {
			return nil, err
		}
	}
	return out, nil
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
