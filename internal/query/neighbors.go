package query

import (
	"context"
	"fmt"
	"slices"

	"graphrepair/internal/hypergraph"
)

// Direction selects which neighbors a neighborhood query returns.
type Direction int

// Neighborhood directions: Out follows edge direction source→target,
// In the reverse, Both ignores direction.
const (
	Out Direction = iota
	In
	Both
)

// check rejects every Direction but Out, In and Both.
func (d Direction) check() error {
	if d < Out || d > Both {
		return fmt.Errorf("query: direction %d is not Out, In or Both", d)
	}
	return nil
}

// Neighbors returns the derived node IDs adjacent to node k of val(G)
// in the given direction, sorted ascending, computed directly on the
// grammar (Prop. 4): O(log ℓ + n·h) for n neighbors.
func (e *Engine) Neighbors(k int64, dir Direction) ([]int64, error) {
	return e.NeighborsContext(context.Background(), k, dir)
}

// NeighborsContext is Neighbors with cooperative cancellation: ctx is
// polled as the derived neighborhood is walked, so a per-query
// deadline bounds nodes of adversarially high degree.
//
// Incidence chains are walked with the read-only IncidentSeqRO — the
// compile phase scrubbed every chain, so concurrent queries share the
// graphs without a single write (DESIGN.md §13). All accumulation
// happens in the pooled scratch; the returned slice is a fresh copy
// the caller owns.
func (e *Engine) NeighborsContext(ctx context.Context, k int64, dir Direction) ([]int64, error) {
	if err := dir.check(); err != nil {
		return nil, err
	}
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.locateInto(&s.loc1, k); err != nil {
		return nil, err
	}
	loc := &s.loc1
	level := len(loc.Graphs) - 1
	h := loc.Graphs[level]
	resolveHost := func(w hypergraph.NodeID) int64 { return e.resolveUp(loc, level, w) }

	out := s.out[:0]
	tk := ticker{ctx: ctx}
	for id := range h.IncidentSeqRO(loc.Node) {
		if err := tk.check("query: neighbors"); err != nil {
			return nil, err
		}
		if lab := h.Label(id); e.g.IsTerminal(lab) {
			if u, ok := terminalNeighbor(h.Att(id), loc.Node, dir); ok {
				out = append(out, resolveHost(u))
			}
			continue
		}
		// Nonterminal edge incident with the node: descend into the
		// derived subgraph (paper's getNeighboring).
		p := h.AttPos(id, loc.Node)
		var base int64
		if level == 0 {
			base = e.topEdgeBase(id)
		} else {
			parentLab := loc.Graphs[level-1].Label(loc.Path[level-1])
			base = e.childBase(loc.Bases[level], parentLab, id)
		}
		if err := e.collectDeep(h, id, base, p, dir, resolveHost, &out, &tk); err != nil {
			return nil, err
		}
	}
	s.out = out // persist buffer growth for the next pooled use

	slices.Sort(out)
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return slices.Clone(dedup), nil
}

// terminalNeighbor returns the neighbor of v along a rank-2 terminal
// edge (given by its attachment) in the requested direction.
func terminalNeighbor(att []hypergraph.NodeID, v hypergraph.NodeID, dir Direction) (hypergraph.NodeID, bool) {
	src, dst := att[0], att[1]
	switch dir {
	case Out:
		if src == v {
			return dst, true
		}
	case In:
		if dst == v {
			return src, true
		}
	case Both:
		if src == v {
			return dst, true
		}
		if dst == v {
			return src, true
		}
	}
	return 0, false
}

// collectDeep implements the paper's getNeighboring(e, p): it collects
// the derived IDs of the neighbors of the p-th external node within
// the subgraph derived by nonterminal edge id. host is the graph the
// edge lives in (start graph or a right-hand side); base is the
// derived-ID block base of the edge; resolveHost maps host nodes to
// their derived IDs (capturing the context above the host). The
// recursion visits each neighbor in O(h) as in Prop. 4.
func (e *Engine) collectDeep(host *hypergraph.Graph, id hypergraph.EdgeID,
	base int64, p int, dir Direction, resolveHost func(hypergraph.NodeID) int64,
	out *[]int64, tk *ticker) error {
	lab := host.Label(id)
	ri := e.rule(lab)
	rhs := ri.rhs
	x := rhs.Ext()[p]
	// Resolver for nodes of rhs in this instance's context.
	resolveHere := func(w hypergraph.NodeID) int64 {
		if rhs.IsExternal(w) {
			return resolveHost(host.Att(id)[rhs.ExtIndex(w)])
		}
		return base + ri.intIndex[w] + 1
	}
	for eid := range rhs.IncidentSeqRO(x) {
		if err := tk.check("query: neighbors"); err != nil {
			return err
		}
		if e.g.IsTerminal(rhs.Label(eid)) {
			if u, ok := terminalNeighbor(rhs.Att(eid), x, dir); ok {
				*out = append(*out, resolveHere(u))
			}
			continue
		}
		pp := rhs.AttPos(eid, x)
		if err := e.collectDeep(rhs, eid, e.childBase(base, lab, eid), pp, dir, resolveHere, out, tk); err != nil {
			return err
		}
	}
	return nil
}
