package query

import (
	"context"
	"maps"
	"slices"

	"graphrepair/internal/buf"
	"graphrepair/internal/hypergraph"
)

// fold is the engine's one bottom-up pass, the paper's Sec. V view of
// "compatible" functions (Courcelle–Mosbah): step summarizes one
// right-hand side from the summaries of the nonterminals it
// references, applied to every rule in ≤NT order and then to the
// start graph as a rank-0 right-hand side. sums[ruleIdx(A)] is A's
// summary, and sums[len(e.rules)] the start graph's. ctx is polled
// (through tk) between rules.
func fold[T any](e *Engine, tk *ticker, op string, step func(h *hypergraph.Graph, sums []T) (T, error)) ([]T, error) {
	sums := make([]T, len(e.rules)+1)
	for _, nt := range e.bottomUp {
		if err := tk.check(op); err != nil {
			return nil, err
		}
		s, err := step(e.g.Rule(nt), sums)
		if err != nil {
			return nil, err
		}
		sums[e.ruleIdx(nt)] = s
	}
	s, err := step(e.g.Start, sums)
	if err != nil {
		return nil, err
	}
	sums[len(e.rules)] = s
	return sums, nil
}

// Reachable reports whether derived node v is reachable from derived
// node u in val(G), evaluated in O(|G|) on the grammar (Thm. 6): the
// right-hand sides along both G-representations are glued into one
// "path-expanded" graph (with skeletons standing in for unexpanded
// subtrees, and right-hand sides shared along the common prefix), and
// a single BFS answers the query (product.go). This also covers the case where both
// nodes lie in the same derivation subtree.
func (e *Engine) Reachable(u, v int64) (bool, error) {
	return e.ReachableContext(context.Background(), u, v)
}

// ReachableContext is Reachable with cooperative cancellation: ctx is
// polled at BFS frontier expansions, so a per-query deadline bounds
// even adversarial grammars whose path expansions are large.
func (e *Engine) ReachableContext(ctx context.Context, u, v int64) (bool, error) {
	if u == v {
		err := e.checkNode(u)
		return err == nil, err
	}
	s := e.getScratch()
	defer e.putScratch(s)
	src, dst, err := e.expand(s, &anyLabel, e.skel, u, v)
	if err != nil {
		return false, err
	}
	// A skeleton arc's length does not matter here, only that it is
	// finite.
	tk := ticker{ctx: ctx}
	return s.pg.bfs(&tk, "query: reachable", src, dst, anyLabel.accept)
}

// ComponentCount returns the number of weakly connected components of
// val(G), computed in one bottom-up pass (a "compatible"/CMSO-style
// speed-up query, Sec. V): every nonterminal contributes the partition
// its derivation induces on its attachment nodes plus the count of
// derived components that touch no external node. The pass runs
// during construction.
func (e *Engine) ComponentCount() int64 { return e.comps }

// compSum is ComponentCount's fold value for one right-hand side.
type compSum struct {
	part     []int // external position → group of positions connected in val(A)
	enclosed int64 // components of val(A) with no external node
}

func (e *Engine) componentCount(tk *ticker) (int64, error) {
	var parent, nodes []hypergraph.NodeID
	find := func(x hypergraph.NodeID) hypergraph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b hypergraph.NodeID) { parent[find(a)] = find(b) }
	sums, err := fold(e, tk, "query: build engine", func(h *hypergraph.Graph, sums []compSum) (compSum, error) {
		parent = buf.Grow(parent, int(h.MaxNodeID())+1)
		for v := range parent {
			parent[v] = hypergraph.NodeID(v)
		}
		var s compSum
		for id := range h.EdgesSeq() {
			att := h.Att(id)
			lab := h.Label(id)
			if e.g.IsTerminal(lab) {
				union(att[0], att[1])
				continue
			}
			in := &sums[e.ruleIdx(lab)]
			s.enclosed += in.enclosed
			for pos, g := range in.part {
				union(att[pos], att[slices.Index(in.part, g)])
			}
		}
		ext := h.Ext()
		s.part = make([]int, len(ext))
		groups := 0
		for i, x := range ext {
			s.part[i] = groups
			for j := range i {
				if find(ext[j]) == find(x) {
					s.part[i] = s.part[j]
					break
				}
			}
			if s.part[i] == groups {
				groups++
			}
		}
		nodes = h.AppendNodes(nodes[:0])
		for _, v := range nodes {
			if find(v) == v {
				s.enclosed++
			}
		}
		s.enclosed -= int64(groups)
		return s, nil
	})
	if err != nil {
		return 0, err
	}
	return sums[len(e.rules)].enclosed, nil
}

// DegreeStats returns the minimum and maximum degree over all nodes of
// val(G) in the given direction, in one bottom-up pass (a CMSO-style
// function query the paper lists as evaluable on the grammar). It
// returns (0, 0) for a graph with no nodes. The pass covers all three
// directions at once and runs during construction.
func (e *Engine) DegreeStats(dir Direction) (min, max int64, err error) {
	if err := dir.check(); err != nil {
		return 0, 0, err
	}
	return e.deg[dir][0], e.deg[dir][1], nil
}

// degSum is DegreeStats' fold value for one right-hand side; every
// [3]int64 is indexed by Direction.
type degSum struct {
	ext      [][3]int64 // degree each external position gains inside val(A)
	min, max [3]int64   // over the non-external nodes of val(A)
	internal bool       // val(A) has a non-external node
}

// merge widens s's internal-degree range to cover [min, max].
func (s *degSum) merge(min, max [3]int64) {
	for d := range min {
		if !s.internal || min[d] < s.min[d] {
			s.min[d] = min[d]
		}
		if !s.internal || max[d] > s.max[d] {
			s.max[d] = max[d]
		}
	}
	s.internal = true
}

func (e *Engine) degreeStats(tk *ticker) (mm [3][2]int64, err error) {
	var deg [][3]int64
	var nodes []hypergraph.NodeID
	sums, err := fold(e, tk, "query: build engine", func(h *hypergraph.Graph, sums []degSum) (degSum, error) {
		deg = buf.GrowClear(deg, int(h.MaxNodeID())+1)
		var s degSum
		for id := range h.EdgesSeq() {
			att := h.Att(id)
			lab := h.Label(id)
			if e.g.IsTerminal(lab) {
				deg[att[0]][Out]++
				deg[att[0]][Both]++
				deg[att[1]][In]++
				deg[att[1]][Both]++
				continue
			}
			in := &sums[e.ruleIdx(lab)]
			for pos, d := range in.ext {
				for dir, n := range d {
					deg[att[pos]][dir] += n
				}
			}
			if in.internal {
				s.merge(in.min, in.max)
			}
		}
		s.ext = make([][3]int64, h.Rank())
		for i, x := range h.Ext() {
			s.ext[i] = deg[x]
		}
		nodes = h.AppendNodes(nodes[:0])
		for _, v := range nodes {
			if !h.IsExternal(v) {
				s.merge(deg[v], deg[v])
			}
		}
		return s, nil
	})
	if err != nil {
		return mm, err
	}
	// With no nodes, s.min and s.max stay zero.
	s := sums[len(e.rules)]
	for dir := range mm {
		mm[dir] = [2]int64{s.min[dir], s.max[dir]}
	}
	return mm, nil
}

// LabelHistogram returns the number of terminal edges of val(G) per
// label, in one bottom-up pass. The pass runs during construction;
// the returned map is a fresh copy the caller may mutate.
func (e *Engine) LabelHistogram() map[hypergraph.Label]int64 {
	return maps.Clone(e.hist)
}

func (e *Engine) labelHistogram(tk *ticker) (map[hypergraph.Label]int64, error) {
	sums, err := fold(e, tk, "query: build engine", func(h *hypergraph.Graph, sums []map[hypergraph.Label]int64) (map[hypergraph.Label]int64, error) {
		out := make(map[hypergraph.Label]int64)
		for id := range h.EdgesSeq() {
			lab := h.Label(id)
			if e.g.IsTerminal(lab) {
				out[lab]++
				continue
			}
			for l, c := range sums[e.ruleIdx(lab)] {
				out[l] += c
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return sums[len(e.rules)], nil
}
