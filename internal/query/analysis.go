package query

import (
	"context"
	"fmt"
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
		s, err := step(e.rule(nt).rhs, sums)
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

// nodeKey names a node of the path-expanded graph: the instance it
// belongs to (by derivation-path key; "" is the start graph) and its
// node ID there.
type nodeKey struct {
	inst string
	node hypergraph.NodeID
}

// instance is one expanded right-hand side along a G-representation
// path.
type instance struct {
	key    string
	parent string
	edge   hypergraph.EdgeID // edge in parent deriving this instance
	graph  *hypergraph.Graph
}

// pathExpansion glues the start graph and the right-hand-side
// instances along one or two G-representation paths, sharing instances
// along common prefixes. It backs both plain reachability (Thm. 6) and
// regular path queries. Its maps live in the pooled query scratch —
// per-call state, never shared.
type pathExpansion struct {
	e         *Engine
	instances map[string]instance
	// onPath[instKey][edgeID]: this nonterminal edge is expanded as a
	// child instance, so its skeleton must not be added.
	onPath map[string]map[hypergraph.EdgeID]bool
}

func prefKey(path []hypergraph.EdgeID, n int) string {
	b := make([]byte, 0, 4*n)
	for _, id := range path[:n] {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// expandPathsInto builds the shared instance set for the given
// locations inside the scratch's pathExpansion (cleared on the
// scratch's previous release).
func (e *Engine) expandPathsInto(s *scratch, locs ...*Location) *pathExpansion {
	px := &s.px
	px.e = e
	px.instances[""] = instance{key: "", graph: e.g.Start}
	for _, l := range locs {
		for n := 1; n <= len(l.Path); n++ {
			k := prefKey(l.Path, n)
			if _, ok := px.instances[k]; ok {
				continue
			}
			px.instances[k] = instance{
				key:    k,
				parent: prefKey(l.Path, n-1),
				edge:   l.Path[n-1],
				graph:  l.Graphs[n],
			}
		}
	}
	for _, ins := range px.instances {
		if ins.key == "" {
			continue
		}
		if px.onPath[ins.parent] == nil {
			px.onPath[ins.parent] = map[hypergraph.EdgeID]bool{}
		}
		px.onPath[ins.parent][ins.edge] = true
	}
	return px
}

// keyOf returns the instance key of a location's innermost graph.
func (px *pathExpansion) keyOf(l *Location) string {
	return prefKey(l.Path, len(l.Path))
}

// canonical resolves a node of an instance to its canonical key:
// external nodes of a non-root instance belong to the parent.
func (px *pathExpansion) canonical(key string, n hypergraph.NodeID) nodeKey {
	for {
		ins := px.instances[key]
		if key == "" || !ins.graph.IsExternal(n) {
			return nodeKey{key, n}
		}
		parent := px.instances[ins.parent]
		n = parent.graph.Att(ins.edge)[ins.graph.ExtIndex(n)]
		key = ins.parent
	}
}

// forEachEdge yields every edge of every expanded instance, skipping
// nonterminal edges that are themselves expanded as child instances.
func (px *pathExpansion) forEachEdge(yield func(instKey string, h *hypergraph.Graph, id hypergraph.EdgeID)) {
	for _, ins := range px.instances {
		for id := range ins.graph.EdgesSeq() {
			if !px.e.g.IsTerminal(ins.graph.Label(id)) && px.onPath[ins.key][id] {
				continue
			}
			yield(ins.key, ins.graph, id)
		}
	}
}

// arcs reports the arcs edge id of h contributes to an expanded graph:
// a terminal edge is one arc of length 1, a nonterminal edge one arc
// per finite off-diagonal entry of its min-plus skeleton.
func (e *Engine) arcs(h *hypergraph.Graph, id hypergraph.EdgeID, dskel [][][]int64, add func(a, b hypergraph.NodeID, w int64)) {
	att := h.Att(id)
	lab := h.Label(id)
	if e.g.IsTerminal(lab) {
		add(att[0], att[1], 1)
		return
	}
	for i, row := range dskel[e.ruleIdx(lab)] {
		for j, d := range row {
			if i != j && d < maxDist {
				add(att[i], att[j], d)
			}
		}
	}
}

// expand builds the path-expanded graph of a (u, v) query into
// s.wadj: the right-hand sides along both G-representations, glued
// with instances shared along the common prefix, and every
// unexpanded nonterminal edge replaced by its skeleton arcs. It
// returns the canonical keys of u and v.
func (e *Engine) expand(ctx context.Context, s *scratch, u, v int64) (src, dst nodeKey, err error) {
	if err := e.locateInto(&s.loc1, u); err != nil {
		return src, dst, err
	}
	if err := e.locateInto(&s.loc2, v); err != nil {
		return src, dst, err
	}
	dskel, err := e.distSkeletons(ctx)
	if err != nil {
		return src, dst, err
	}
	px := e.expandPathsInto(s, &s.loc1, &s.loc2)
	var inst string
	add := func(a, b hypergraph.NodeID, w int64) {
		ka := px.canonical(inst, a)
		s.wadj[ka] = append(s.wadj[ka], arc[nodeKey]{px.canonical(inst, b), w})
	}
	px.forEachEdge(func(instKey string, h *hypergraph.Graph, id hypergraph.EdgeID) {
		inst = instKey
		e.arcs(h, id, dskel, add)
	})
	src = px.canonical(px.keyOf(&s.loc1), s.loc1.Node)
	dst = px.canonical(px.keyOf(&s.loc2), s.loc2.Node)
	return src, dst, nil
}

// Reachable reports whether derived node v is reachable from derived
// node u in val(G), evaluated in O(|G|) on the grammar (Thm. 6): the
// right-hand sides along both G-representations are glued into one
// "path-expanded" graph (with skeletons standing in for unexpanded
// subtrees, and instances shared along the common prefix), and a
// single BFS answers the query. This also covers the case where both
// nodes lie in the same derivation subtree.
func (e *Engine) Reachable(u, v int64) (bool, error) {
	return e.ReachableContext(context.Background(), u, v)
}

// ReachableContext is Reachable with cooperative cancellation: ctx is
// polled during the skeleton precomputation and at BFS frontier
// expansions, so a per-query deadline bounds even adversarial
// grammars whose path expansions are large.
func (e *Engine) ReachableContext(ctx context.Context, u, v int64) (bool, error) {
	if u == v {
		return true, nil
	}
	key := cacheKey{op: opReach, a: u, b: v}
	if e.cache != nil {
		if cv, ok := e.cache.get(key); ok {
			return cv.ok, nil
		}
	}
	s := e.getScratch()
	defer e.putScratch(s)
	src, dst, err := e.expand(ctx, s, u, v)
	if err != nil {
		return false, err
	}
	// Plain BFS: a skeleton arc's length does not matter here, only
	// that it is finite.
	seen := s.seen
	seen[src] = true
	s.queue = append(s.queue[:0], src)
	tk := ticker{ctx: ctx}
	found := false
	for head := 0; head < len(s.queue); head++ {
		if err := tk.check("query: reachable"); err != nil {
			return false, err
		}
		x := s.queue[head]
		if x == dst {
			found = true
			break
		}
		for _, a := range s.wadj[x] {
			if !seen[a.to] {
				seen[a.to] = true
				s.queue = append(s.queue, a.to)
			}
		}
	}
	if e.cache != nil {
		e.cache.put(key, cacheVal{ok: found})
	}
	return found, nil
}

// ComponentCount returns the number of weakly connected components of
// val(G), computed in one bottom-up pass (a "compatible"/CMSO-style
// speed-up query, Sec. V): every nonterminal contributes the partition
// its derivation induces on its attachment nodes plus the count of
// derived components that touch no external node. The pass runs once
// per engine; subsequent calls return the memoized count.
func (e *Engine) ComponentCount() int64 {
	c, _ := e.comp.get(func() (int64, error) {
		return e.componentCount(), nil
	})
	return c
}

// compSum is ComponentCount's fold value for one right-hand side.
type compSum struct {
	part     []int // external position → group of positions connected in val(A)
	enclosed int64 // components of val(A) with no external node
}

func (e *Engine) componentCount() int64 {
	var parent, nodes []hypergraph.NodeID
	find := func(x hypergraph.NodeID) hypergraph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b hypergraph.NodeID) { parent[find(a)] = find(b) }
	sums, _ := fold(e, &ticker{}, "query: component count", func(h *hypergraph.Graph, sums []compSum) (compSum, error) {
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
	return sums[len(e.rules)].enclosed
}

// DegreeStats returns the minimum and maximum degree over all nodes of
// val(G) in the given direction, in one bottom-up pass (a CMSO-style
// function query the paper lists as evaluable on the grammar). It
// returns (0, 0) for a graph with no nodes. The pass covers all three
// directions at once and runs once per engine; subsequent calls
// return the memoized pairs.
func (e *Engine) DegreeStats(dir Direction) (min, max int64, err error) {
	if e.total == 0 {
		return 0, 0, nil
	}
	mm, err := e.deg.get(e.degreeStats)
	if err != nil {
		return 0, 0, err
	}
	return mm[dir][0], mm[dir][1], nil
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

func (e *Engine) degreeStats() ([3][2]int64, error) {
	var deg [][3]int64
	var nodes []hypergraph.NodeID
	sums, _ := fold(e, &ticker{}, "query: degree stats", func(h *hypergraph.Graph, sums []degSum) (degSum, error) {
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
	s := sums[len(e.rules)]
	if !s.internal {
		return [3][2]int64{}, fmt.Errorf("query: DegreeStats on empty graph")
	}
	var mm [3][2]int64
	for dir := range mm {
		mm[dir] = [2]int64{s.min[dir], s.max[dir]}
	}
	return mm, nil
}

// LabelHistogram returns the number of terminal edges of val(G) per
// label, in one bottom-up pass. The pass runs once per engine
// (memoized); the returned map is a fresh copy the caller may mutate.
func (e *Engine) LabelHistogram() map[hypergraph.Label]int64 {
	h, _ := e.hist.get(func() (map[hypergraph.Label]int64, error) {
		return e.labelHistogram(), nil
	})
	out := make(map[hypergraph.Label]int64, len(h))
	for l, c := range h {
		out[l] = c
	}
	return out
}

func (e *Engine) labelHistogram() map[hypergraph.Label]int64 {
	sums, _ := fold(e, &ticker{}, "query: label histogram", func(h *hypergraph.Graph, sums []map[hypergraph.Label]int64) (map[hypergraph.Label]int64, error) {
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
	return sums[len(e.rules)]
}
