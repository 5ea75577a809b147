package query

import (
	"context"
	"maps"
	"math"
	"slices"

	"graphrepair/internal/buf"
	"graphrepair/internal/govern"
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
// node u in val(G), evaluated on the grammar (Thm. 6) against S′, the
// start graph with every nonterminal edge replaced by its skeleton
// arcs, whose condensation the engine builds at compile time. Two
// start nodes are answered by a DFS over that condensation. Otherwise
// the right-hand sides along both G-representations are glued into a
// "path-expanded" graph (skeletons standing in for unexpanded
// subtrees, right-hand sides shared along the common prefix) whose
// start-graph block carries no edges of its own: instead, a closure
// arc a→b joins every a in K(u) and b in K(v) that S′ connects, where
// K(x) is {x} for a start node x and otherwise the attachment of the
// top-level edge x derives from. A single BFS then answers the query
// (product.go). A path that leaves u's subtree and re-enters it is a
// closure arc too, so this also covers both nodes lying in the same
// derivation subtree.
func (e *Engine) Reachable(u, v int64) (bool, error) {
	return e.ReachableContext(context.Background(), u, v)
}

// ReachableContext is Reachable with cooperative cancellation: ctx is
// polled at condensation DFS steps and BFS frontier expansions, so a
// per-query deadline bounds even adversarial grammars whose path
// expansions are large.
func (e *Engine) ReachableContext(ctx context.Context, u, v int64) (bool, error) {
	const op = "query: reachable"
	if u == v {
		err := e.checkNode(u)
		return err == nil, err
	}
	s := e.getScratch()
	defer e.putScratch(s)
	tk := ticker{ctx: ctx}
	if 1 <= u && u <= e.m && 1 <= v && v <= e.m {
		cu, cv := e.scc[u], e.scc[v]
		if cu == cv {
			return true, nil
		}
		if cv > cu { // condensed arcs only run to lower indexes
			return false, nil
		}
		err := e.sccReach(s, &tk, op, cu, cv)
		return err == nil && s.seen[cv] == s.stamp, err
	}
	src, dst, err := e.expand(s, &anyLabel, e.skel, u, v, false)
	if err != nil {
		return false, err
	}
	var ku, kv [1]hypergraph.NodeID
	from, to := e.closureEnds(&s.loc1, &ku), e.closureEnds(&s.loc2, &kv)
	lo := int32(math.MaxInt32)
	for _, b := range to {
		lo = min(lo, e.scc[b])
	}
	for _, a := range from {
		if e.scc[a] < lo {
			continue // every SCC of K(v) lies above a's
		}
		if err := e.sccReach(s, &tk, op, e.scc[a], lo); err != nil {
			return false, err
		}
		for _, b := range to {
			// anyLabel has one state, so product nodes are IDs.
			if a != b && s.seen[e.scc[b]] == s.stamp {
				s.pg.addArc(int32(a), int32(b), 1)
			}
		}
	}
	// A skeleton arc's length does not matter here, only that it is
	// finite.
	return s.pg.bfs(&tk, op, src, dst, anyLabel.accept)
}

// closureEnds returns K(x) for the node loc locates: the attachment of
// its top-level edge, or the start node itself, held in one.
func (e *Engine) closureEnds(loc *Location, one *[1]hypergraph.NodeID) []hypergraph.NodeID {
	if len(loc.Path) > 0 {
		return e.g.Start.Att(loc.Path[0])
	}
	one[0] = loc.Node
	return one[:]
}

// sccReach runs a DFS over the condensation of S′ from SCC from and
// stamps every SCC it visits with a fresh s.stamp in s.seen. It visits
// only SCCs of index ≥ lo: condensed arcs run from higher indexes to
// lower ones, so no SCC below lo leads back up.
func (e *Engine) sccReach(s *scratch, tk *ticker, op string, from, lo int32) error {
	if s.stamp++; s.stamp == 0 || len(s.seen) != len(e.sccOff)-1 {
		s.seen = buf.GrowClear(s.seen, len(e.sccOff)-1)
		s.stamp = 1
	}
	s.seen[from] = s.stamp
	s.stack = append(s.stack[:0], from)
	for len(s.stack) > 0 {
		if err := tk.check(op); err != nil {
			return err
		}
		c := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, d := range e.sccTo[e.sccOff[c]:e.sccOff[c+1]] {
			if d >= lo && s.seen[d] != s.stamp {
				s.seen[d] = s.stamp
				s.stack = append(s.stack, d)
			}
		}
	}
	return nil
}

// condense builds the condensation of S′ (Engine.scc, sccOff, sccTo).
// Two attachment nodes of one edge whose skeleton entries run both
// ways lie in one SCC, so a union-find merges them while S′ is read;
// on start graphs of rank-2 nonterminal edges that leaves few arcs.
// The remaining one-way arcs, between union-find roots, go into a
// CSR, and an iterative Tarjan over the roots numbers the SCCs.
// Tarjan completes an SCC only after every SCC it reaches, so the
// numbering is a reverse topological order, and an SCC's condensed
// arcs are known the moment it completes.
func (e *Engine) condense(tk *ticker, op string) error {
	s := e.g.Start
	n := int32(s.MaxNodeID()) + 1
	parent := make([]int32, n) // union-find forest
	off := make([]int32, n+1)  // CSR offsets of the arcs out of each root
	// Tarjan's state: cur[x] is the next arc examined out of x,
	// index[x] is x's preorder number + 1 (0 = unvisited), low[x] > 0
	// while x is on the stack, frames is the DFS path, and last[d] =
	// c+1 once SCC c has an arc to SCC d.
	cur, index, low, last := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	stack, frames := make([]int32, 0, n), make([]int32, 0, n)
	offs := append(make([]int32, 0, n+1), 0) // sccOff as it grows
	comp := make([]int32, n)
	for x := range parent {
		parent[x] = int32(x)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var pairs []int32 // one-way arcs of S′, source then target
	for id := range s.EdgesSeq() {
		att := s.Att(id)
		lab := s.Label(id)
		if e.g.IsTerminal(lab) {
			pairs = append(pairs, int32(att[0]), int32(att[1]))
			continue
		}
		sk := e.skel[e.ruleIdx(lab)]
		r := len(att)
		for i := range r {
			for j := i + 1; j < r; j++ {
				x, y := int32(att[i]), int32(att[j])
				switch fwd, back := sk[i*r+j] < maxDist, sk[j*r+i] < maxDist; {
				case fwd && back:
					parent[find(x)] = find(y)
				case fwd:
					pairs = append(pairs, x, y)
				case back:
					pairs = append(pairs, y, x)
				}
			}
		}
	}
	for k, x := range pairs {
		pairs[k] = find(x)
	}
	for k := 0; k < len(pairs); k += 2 {
		if pairs[k] != pairs[k+1] {
			off[pairs[k]+1]++
		}
	}
	for x := range n {
		off[x+1] += off[x]
	}
	to := make([]int32, off[n])
	copy(cur, off)
	for k := 0; k < len(pairs); k += 2 {
		if x := pairs[k]; x != pairs[k+1] {
			to[cur[x]] = pairs[k+1]
			cur[x]++
		}
	}

	// Tarjan over the roots. The condensed arcs are gathered in the
	// spent pairs buffer, which holds at least len(to) entries.
	gathered := pairs[:0]
	visited := int32(0)
	visit := func(x int32) {
		visited++
		index[x], low[x], cur[x] = visited, visited, off[x]
		stack = append(stack, x)
		frames = append(frames, x)
	}
	for root := int32(1); root < n; root++ {
		if parent[root] != root || index[root] != 0 {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			if err := tk.check(op); err != nil {
				return err
			}
			x := frames[len(frames)-1]
			if cur[x] < off[x+1] {
				y := to[cur[x]]
				cur[x]++
				if index[y] == 0 {
					visit(y)
				} else if low[y] > 0 { // y is on the stack
					low[x] = min(low[x], index[y])
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1]
				low[p] = min(low[p], low[x])
			}
			if low[x] != index[x] {
				continue
			}
			// x completes SCC c: stack[k:].
			k := len(stack) - 1
			for stack[k] != x {
				k--
			}
			c := int32(len(offs) - 1)
			for _, y := range stack[k:] {
				comp[y], low[y] = c, 0
			}
			for _, y := range stack[k:] {
				for _, z := range to[off[y]:off[y+1]] {
					if d := comp[z]; d != c && last[d] != c+1 {
						last[d] = c + 1
						gathered = append(gathered, d)
					}
				}
			}
			offs = append(offs, int32(len(gathered)))
			stack = stack[:k]
		}
	}
	for x := range comp {
		comp[x] = comp[find(int32(x))]
	}
	e.scc, e.sccOff, e.sccTo = comp, slices.Clone(offs), slices.Clone(gathered)
	return nil
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
				deg[att[0]][Out] = govern.SatAdd(deg[att[0]][Out], 1)
				deg[att[0]][Both] = govern.SatAdd(deg[att[0]][Both], 1)
				deg[att[1]][In] = govern.SatAdd(deg[att[1]][In], 1)
				deg[att[1]][Both] = govern.SatAdd(deg[att[1]][Both], 1)
				continue
			}
			in := &sums[e.ruleIdx(lab)]
			for pos, d := range in.ext {
				for dir, n := range d {
					deg[att[pos]][dir] = govern.SatAdd(deg[att[pos]][dir], n)
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
// label. The pass runs during construction; the returned map is a
// fresh copy the caller may mutate.
func (e *Engine) LabelHistogram() map[hypergraph.Label]int64 {
	return maps.Clone(e.hist)
}

// labelHistogram builds the histogram in one top-down pass over the
// reversed ≤NT order, the start graph first. Each rule's multiplicity,
// the number of its instances in val(G), is complete when the pass
// reaches it: the start graph occurs once, and every A-edge adds its
// host's multiplicity to A's, which comes later. Each right-hand side
// adds its terminal edges, times its multiplicity, into the one result
// map, so memory is O(rules + distinct labels), never O(Terminals),
// and a rule with multiplicity 0 adds no key.
func (e *Engine) labelHistogram(tk *ticker) (map[hypergraph.Label]int64, error) {
	nr := len(e.rules)
	mult := make([]int64, nr+1) // mult[nr] is the start graph's
	mult[nr] = 1
	hist := make(map[hypergraph.Label]int64)
	for k := len(e.bottomUp); k >= 0; k-- {
		i, h := nr, e.g.Start
		if k < len(e.bottomUp) {
			i = e.ruleIdx(e.bottomUp[k])
			h = e.rules[i].rhs
		}
		if mult[i] == 0 {
			continue
		}
		if err := tk.check("query: build engine"); err != nil {
			return nil, err
		}
		for id := range h.EdgesSeq() {
			if lab := h.Label(id); e.g.IsTerminal(lab) {
				hist[lab] = govern.SatAdd(hist[lab], mult[i])
			} else {
				j := e.ruleIdx(lab)
				mult[j] = govern.SatAdd(mult[j], mult[i])
			}
		}
	}
	return hist, nil
}
