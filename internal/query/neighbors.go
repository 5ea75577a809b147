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
// Incidence chains are walked with the read-only IncidentSeqRO, which
// skips dead slots without unlinking them, so concurrent queries share
// the graphs without a single write (DESIGN.md §13). All accumulation
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

	s.out = s.out[:0]
	s.frames = s.frames[:0]
	tk := ticker{ctx: ctx}
	for id := range h.IncidentSeqRO(loc.Node) {
		if err := tk.check("query: neighbors"); err != nil {
			return nil, err
		}
		if lab := h.Label(id); e.g.IsTerminal(lab) {
			if u, ok := terminalNeighbor(h.Att(id), loc.Node, dir); ok {
				s.out = append(s.out, e.resolveUp(loc, level, u))
			}
			continue
		}
		// Nonterminal edge incident with the node: descend into the
		// derived subgraph (paper's getNeighboring).
		var base int64
		if level == 0 {
			base = e.topEdgeBase(id)
		} else {
			parentLab := loc.Graphs[level-1].Label(loc.Path[level-1])
			base = e.childBase(loc.Bases[level], parentLab, id)
		}
		s.frames = append(s.frames, e.frame(-1, h, id, base, loc.Node))
	}
	if err := e.collectDeep(s, level, dir, &tk); err != nil {
		return nil, err
	}

	out := s.out
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

// nbrFrame is one instance of a nonterminal edge that a neighborhood
// query descends into: edge id of host, entered at the rule's external
// node x, with its derived block at base. parent is the frame of the
// instance host belongs to, or -1 for the queried node's own graph.
type nbrFrame struct {
	ri     *ruleInfo
	host   *hypergraph.Graph
	base   int64
	parent int32
	id     hypergraph.EdgeID
	x      hypergraph.NodeID
	open   bool // the frame's edges have been read
}

// frame returns the frame for edge id of host entered at host node v.
func (e *Engine) frame(parent int32, host *hypergraph.Graph, id hypergraph.EdgeID, base int64, v hypergraph.NodeID) nbrFrame {
	ri := e.rule(host.Label(id))
	return nbrFrame{ri: ri, host: host, base: base, parent: parent, id: id, x: ri.rhs.Ext()[host.AttPos(id, v)]}
}

// collectDeep implements the paper's getNeighboring(e, p) for every
// frame on s.frames: it appends to s.out the derived IDs of the
// neighbors of the external node x within the subgraph derived by the
// frame's edge. It runs depth-first on the explicit frame stack, not
// on the goroutine's: a frame stays below the frames of the edges it
// contains until they are done, so a node of any frame resolves to its
// derived ID by following the parent links (resolveFrame). Each
// neighbor costs O(h), as in Prop. 4.
func (e *Engine) collectDeep(s *scratch, level int, dir Direction, tk *ticker) error {
	for len(s.frames) > 0 {
		f := int32(len(s.frames) - 1)
		if s.frames[f].open {
			s.frames = s.frames[:f]
			continue
		}
		s.frames[f].open = true
		fr := s.frames[f]
		rhs := fr.ri.rhs
		for eid := range rhs.IncidentSeqRO(fr.x) {
			if err := tk.check("query: neighbors"); err != nil {
				return err
			}
			if e.g.IsTerminal(rhs.Label(eid)) {
				if u, ok := terminalNeighbor(rhs.Att(eid), fr.x, dir); ok {
					s.out = append(s.out, e.resolveFrame(s, f, u, level))
				}
				continue
			}
			base := e.childBase(fr.base, fr.host.Label(fr.id), eid)
			s.frames = append(s.frames, e.frame(f, rhs, eid, base, fr.x))
		}
	}
	return nil
}

// resolveFrame returns the derived ID of node w of frame f's rule:
// an external node stands for the host's attachment node at its
// position, up the frames and then up the queried node's location.
func (e *Engine) resolveFrame(s *scratch, f int32, w hypergraph.NodeID, level int) int64 {
	for ; f >= 0; f = s.frames[f].parent {
		fr := &s.frames[f]
		if i := fr.ri.rhs.ExtIndex(w); i >= 0 {
			w = fr.host.Att(fr.id)[i]
			continue
		}
		return fr.base + fr.ri.intIndex[w] + 1
	}
	return e.resolveUp(&s.loc1, level, w)
}
