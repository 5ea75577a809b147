package query

import (
	"math"
	"slices"

	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// The query phase's one search structure is the path-expanded graph of
// Thm. 6 in product with an automaton, over dense int32 IDs. Reachable
// and Distance take the product with anyLabel, which leaves the graph
// as it is; an RPQ takes it with its NFA (the "regular path queries"
// extension the paper's conclusion names). The same builder lays out
// one right-hand side for the bottom-up skeleton pass and the glued
// right-hand sides of a query, so there is one skeleton builder and
// one Dijkstra, run one way or from both ends. A query never lays out
// the start graph's edges: its search reads S′ in place from the start
// graph as it settles start nodes (startWalk).

// automaton is the compiled form of an NFA the product search runs on:
// dense per-(state, label) transition lists.
type automaton struct {
	states, start int
	accept        []bool
	// The transitions of state q on terminal label l are
	// to[off[i]:off[i+1]] for i = q·width + l-1. A wild automaton uses
	// column 0 for every label.
	width   int
	wild    bool
	off, to []int32
}

// anyLabel is the one-state automaton every terminal label loops on.
var anyLabel = automaton{states: 1, accept: []bool{true}, width: 1, wild: true,
	off: []int32{0, 1}, to: []int32{0}}

// compileNFA tabulates a over the terminal labels 1..terms; labels
// outside that range never match a terminal edge and are dropped.
func compileNFA(a *NFA, terms hypergraph.Label) automaton {
	width := 0
	for _, m := range a.trans {
		for l := range m {
			if l <= terms {
				width = max(width, int(l))
			}
		}
	}
	c := automaton{states: a.States, start: a.Start, accept: append([]bool(nil), a.Accept...),
		width: width, off: make([]int32, a.States*width+1)}
	for q := range a.States {
		for l := 1; l <= width; l++ {
			for _, p := range a.Next(q, hypergraph.Label(l)) {
				c.to = append(c.to, int32(p))
			}
			c.off[q*width+l] = int32(len(c.to))
		}
	}
	return c
}

// next returns the states q steps to on terminal label l.
func (a *automaton) next(q int32, l hypergraph.Label) []int32 {
	c := int(l) - 1
	if a.wild {
		c = 0
	} else if c >= a.width {
		return nil
	}
	i := int(q)*a.width + c
	return a.to[a.off[i]:a.off[i+1]]
}

// product is an expanded graph in product with an automaton, plus the
// state of the searches over it. Each block of right-hand side h takes
// h.MaxNodeID()+1 IDs; rep maps an ID to the one it stands for, which
// is itself except at a child block's external nodes, which stand for
// the parent's attachment nodes. Product node x·Q + q is ID x in state
// q. All slices are reused across layouts.
type product struct {
	blocks []block
	rep    []int32
	q      int32  // automaton states
	fwd    search // the layout's arcs
	bwd    search // the same arcs reversed, for a two-way search
	// meet is the shortest src→dst length a two-way search has seen
	// so far, through a node both directions reached.
	meet int64
}

// search is one direction of a search over a product: the arcs it
// follows, chained from head, and its tentative lengths and heap.
// Between uses every head and dist entry up to capacity is unset (-1,
// maxDist). heads and reached list the entries a layout and a search
// set, so undoing them costs what they set, not the product's size.
type search struct {
	head    []int32 // first arc out of each product node, -1 if none
	heads   []int32 // the product nodes whose head is set
	arcs    []arc
	dist    []int64 // per product node; maxDist = not reached
	reached []int32 // the product nodes whose dist is set
	heap    []heapItem
}

// block is one right-hand side laid out in a product: its graph, its
// first ID, and the nonterminal edges of h expanded as child blocks,
// which therefore contribute no skeleton arcs.
type block struct {
	h    *hypergraph.Graph
	base int32
	skip [2]hypergraph.EdgeID
}

// arc is an edge of a product, chained from head: a terminal edge
// (length 1) or a finite skeleton entry (its min-plus length).
type arc struct {
	to, next int32
	w        int64
}

type heapItem struct {
	d int64
	x int32
}

// addBlock lays out h as a new block and returns its index. A root
// block (parent < 0) starts a new layout; a child block is derived by
// edge id of the parent's graph.
func (g *product) addBlock(h *hypergraph.Graph, parent int, id hypergraph.EdgeID) int {
	if parent < 0 {
		g.blocks = g.blocks[:0]
		g.rep = g.rep[:0]
	}
	base := int32(len(g.rep))
	n := int(h.MaxNodeID()) + 1
	g.rep = slices.Grow(g.rep, n)[:int(base)+n]
	for i := range g.rep[base:] {
		g.rep[base+int32(i)] = base + int32(i)
	}
	if parent >= 0 {
		p := &g.blocks[parent]
		att := p.h.Att(id)
		for k, x := range h.Ext() {
			g.rep[base+int32(x)] = g.id(parent, att[k])
		}
		if p.skip[0] == hypergraph.NoEdge {
			p.skip[0] = id
		} else {
			p.skip[1] = id
		}
	}
	g.blocks = append(g.blocks, block{h: h, base: base, skip: [2]hypergraph.EdgeID{hypergraph.NoEdge, hypergraph.NoEdge}})
	return len(g.blocks) - 1
}

// id returns the ID node x of block b stands for.
func (g *product) id(b int, x hypergraph.NodeID) int32 {
	return g.rep[g.blocks[b].base+int32(x)]
}

// build chains the arcs of the edges of blocks from, from+1, ... in
// product with a: terminal edges step the automaton, nonterminal edges
// that are not child blocks contribute the finite off-diagonal entries
// of their skeletons (skel, rule-indexed). Blocks before from get
// their IDs but no arcs.
func (g *product) build(e *Engine, a *automaton, skel [][]int64, from int) error {
	n := int64(len(g.rep)) * int64(a.states)
	if n > math.MaxInt32 {
		return &govern.LimitError{Resource: "expanded product nodes", Demanded: n, Allowed: math.MaxInt32}
	}
	Q := int32(a.states)
	g.q = Q
	g.fwd.size(int(n))
	for _, b := range g.blocks[from:] {
		for id := range b.h.EdgesSeq() {
			if id == b.skip[0] || id == b.skip[1] {
				continue
			}
			att := b.h.Att(id)
			lab := b.h.Label(id)
			if e.g.IsTerminal(lab) {
				x, y := g.rep[b.base+int32(att[0])]*Q, g.rep[b.base+int32(att[1])]*Q
				for q := range Q {
					for _, p := range a.next(q, lab) {
						g.fwd.add(x+q, y+p, 1)
					}
				}
				continue
			}
			sk := skel[e.ruleIdx(lab)]
			r := int32(len(att)) * Q
			for i := range r {
				x := g.rep[b.base+int32(att[i/Q])]*Q + i%Q
				for j, d := range sk[i*r : (i+1)*r] {
					if j := int32(j); i != j && d < maxDist {
						g.fwd.add(x, g.rep[b.base+int32(att[j/Q])]*Q+j%Q, d)
					}
				}
			}
		}
	}
	return nil
}

// size unsets what s set last and makes room for n product nodes.
// Past capacity, head and dist are made anew, unset throughout.
func (s *search) size(n int) {
	s.clear()
	if n > cap(s.head) {
		c := max(n, 2*cap(s.head))
		s.head = slices.Repeat([]int32{-1}, c)
		s.dist = slices.Repeat([]int64{maxDist}, c)
	}
	s.head, s.dist = s.head[:n], s.dist[:n]
}

func (s *search) add(x, y int32, w int64) {
	if s.head[x] < 0 {
		s.heads = append(s.heads, x)
	}
	s.arcs = append(s.arcs, arc{to: y, next: s.head[x], w: w})
	s.head[x] = int32(len(s.arcs) - 1)
}

// clear unsets every head and dist entry s set and drops its arcs.
func (s *search) clear() {
	for _, x := range s.heads {
		s.head[x] = -1
	}
	s.heads, s.arcs = s.heads[:0], s.arcs[:0]
	s.reset()
}

// reset marks every product node unreached and empties the heap.
func (s *search) reset() {
	for _, x := range s.reached {
		s.dist[x] = maxDist
	}
	s.reached, s.heap = s.reached[:0], s.heap[:0]
}

// clear unsets everything the last layout and search set, in both
// directions, so the scratch holding g is released clean.
func (g *product) clear() {
	g.fwd.clear()
	g.bwd.clear()
}

// reverse lays out the backward search's arcs: every arc of the
// layout, turned around.
func (g *product) reverse() {
	f, b := &g.fwd, &g.bwd
	b.size(len(f.head))
	for _, x := range f.heads {
		for a := f.head[x]; a >= 0; a = f.arcs[a].next {
			b.add(f.arcs[a].to, x, f.arcs[a].w)
		}
	}
}

// dijkstra computes shortest-path lengths from product node src into
// g.fwd.dist, over a binary min-heap in which a node may appear more
// than once (entries older than dist are skipped on pop). It stops at
// the first settled node of ID dst in a state accept accepts and
// returns its length, or maxDist if there is none; with dst < 0, dist
// ends up exact for every node reachable from src. With a non-nil w, a
// settled start node also follows its S′ arcs, read in place
// (startWalk). ctx is polled (through tk) at every extraction.
func (g *product) dijkstra(tk *ticker, op string, src, dst int32, accept []bool, w *startWalk) (int64, error) {
	f := &g.fwd
	f.reset()
	g.relax(f, nil, src, 0)
	for {
		if err := tk.check(op); err != nil {
			return 0, err
		}
		it, ok := f.pop()
		if !ok {
			return maxDist, nil
		}
		x, q := it.x/g.q, it.x%g.q
		if x == dst && accept[q] {
			return it.d, nil
		}
		g.settle(f, nil, w, it, x, q)
	}
}

// twoWay is dijkstra from src to another node dst run from both ends
// at once, over a one-state product: the forward search follows the
// layout's arcs, the backward one their reverses (and S′'s, with a
// non-nil w), and each step advances the direction with the smaller
// heap. A node both directions reach joins a src→dst path. The search
// stops once the two heaps' minimum keys plus 1 reach the shortest
// such path, which is then the answer (maxDist if there is none):
// every arc is at least 1 long, and a shorter path would have to run
// from a node not yet settled forward, over at least one arc, to a
// node not yet settled backward. A direction that runs dry has reached
// all it can, so the search stops then too.
func (g *product) twoWay(tk *ticker, op string, src, dst int32, w *startWalk) (int64, error) {
	g.reverse()
	f, b := &g.fwd, &g.bwd
	f.reset()
	b.reset()
	g.meet = maxDist
	g.relax(f, nil, src, 0)
	g.relax(b, nil, dst, 0)
	for len(f.heap) > 0 && len(b.heap) > 0 && addDist(f.heap[0].d, b.heap[0].d+1) < g.meet {
		if err := tk.check(op); err != nil {
			return 0, err
		}
		s, o := f, b
		if len(b.heap) < len(f.heap) {
			s, o = b, f
		}
		if it, ok := s.pop(); ok {
			g.settle(s, o, w, it, it.x, 0)
		}
	}
	return g.meet, nil
}

// settle expands product node it.x = x·Q + q, taken off s's heap at
// its final length: the arcs chained from it and, for a start node of
// a walk, its S′ arcs — unless the walk's condensation bound rules x
// out. o is the opposite direction of a two-way search, or nil.
func (g *product) settle(s, o *search, w *startWalk, it heapItem, x, q int32) {
	if w != nil && x < w.n {
		if back := s == &g.bwd; back && w.e.scc[x] > w.hi || !back && w.e.scc[x] < w.lo {
			return
		}
		w.relaxFrom(g, s, o, x, q, it.d)
	}
	for a := s.head[it.x]; a >= 0; a = s.arcs[a].next {
		g.relax(s, o, s.arcs[a].to, addDist(it.d, s.arcs[a].w))
	}
}

// relax lowers product node y's length in s to d, if that is shorter,
// and records a meeting with the opposite direction o.
func (g *product) relax(s, o *search, y int32, d int64) {
	if d >= s.dist[y] {
		return
	}
	if s.dist[y] == maxDist {
		s.reached = append(s.reached, y)
	}
	s.dist[y] = d
	s.push(heapItem{d, y})
	if o != nil && o.dist[y] < maxDist {
		g.meet = min(g.meet, addDist(d, o.dist[y]))
	}
}

// startWalk reads S′ — the start graph with each terminal edge kept as
// an arc and each nonterminal edge replaced by the finite entries of
// its skeleton — in place, for a search over a layout whose start
// block has no arcs of its own. The arcs at a start node are read from
// its incidence chain when the search settles it, so a query touches
// only the part of S′ its search reaches. The walk also yields the
// skeleton arcs of the top-level edges on the two query paths, whose
// expanded blocks are laid out too; that is harmless, since a skeleton
// entry is the exact shortest length inside val(A), which the expanded
// block also holds.
type startWalk struct {
	e    *Engine
	a    *automaton
	skel [][]int64
	n    int32 // start node IDs are 1..n-1
	// The condensation bounds a search toward K(v) from K(u): the
	// forward direction does not expand a start node whose SCC index
	// is below lo, which cannot reach K(v), and the backward one none
	// above hi, which K(u) cannot reach. lo = 0 and hi = MaxInt32
	// rule out nothing.
	lo, hi int32
}

// newStartWalk returns the walk of e's start graph in product with a,
// over the product skeletons skel, bounded by SCCs lo and hi.
func newStartWalk(e *Engine, a *automaton, skel [][]int64, lo, hi int32) startWalk {
	return startWalk{e: e, a: a, skel: skel, n: int32(e.g.Start.MaxNodeID()) + 1, lo: lo, hi: hi}
}

// relaxFrom relaxes in s the S′ arcs at product node x·Q+q, x a start
// node settled at length d. Forward, a terminal edge leaving x steps
// the automaton at length 1, and a nonterminal edge gives the row of
// its skeleton that belongs to x's attachment position in state q.
// Backward (one state only), a terminal edge entering x and the
// column of x's position are read instead.
func (w *startWalk) relaxFrom(g *product, s, o *search, x, q int32, d int64) {
	st, Q, terms := w.e.g.Start, g.q, w.e.g.Terminals
	back := s == &g.bwd
	for id := range st.IncidentSeqRO(hypergraph.NodeID(x)) {
		att := st.Att(id)
		lab := st.Label(id)
		if lab <= terms {
			switch {
			case back:
				if int32(att[1]) == x {
					g.relax(s, o, int32(att[0]), addDist(d, 1))
				}
			case int32(att[0]) == x:
				for _, p := range w.a.next(q, lab) {
					g.relax(s, o, int32(att[1])*Q+p, addDist(d, 1))
				}
			}
			continue
		}
		sk := w.skel[lab-terms-1]
		r := int32(len(att)) * Q
		i := int32(st.AttPos(id, hypergraph.NodeID(x)))*Q + q
		if back {
			for k, y := range att {
				if l := sk[int32(k)*r+i]; l < maxDist && int32(k) != i {
					g.relax(s, o, int32(y), addDist(d, l))
				}
			}
			continue
		}
		// Entry k·Q+p of the row is attachment node k in state p.
		row := sk[i*r : (i+1)*r]
		for k, y := range att {
			for p, l := range row[int32(k)*Q : int32(k+1)*Q] {
				if l < maxDist && int32(k)*Q+int32(p) != i {
					g.relax(s, o, int32(y)*Q+int32(p), addDist(d, l))
				}
			}
		}
	}
}

func (s *search) push(it heapItem) {
	s.heap = append(s.heap, it)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= it.d {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// pop takes the heap's minimum that is still current, skipping
// entries a shorter one has superseded; it reports false once the heap
// is empty.
func (s *search) pop() (heapItem, bool) {
	for len(s.heap) > 0 {
		h := s.heap
		top, last := h[0], h[len(h)-1]
		h = h[:len(h)-1]
		s.heap = h
		if len(h) > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1].d < h[c].d {
					c++
				}
				if last.d <= h[c].d {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = last
		}
		if top.d <= s.dist[top.x] {
			return top, true
		}
	}
	return heapItem{}, false
}

// skeletons computes the product skeletons of a in one bottom-up fold.
// For a rule of rank r and R = r·Q, sk[i·R + j] is the length of a
// shortest path inside val(A) from external product node i to
// external product node j, or maxDist if there is none; external
// product node k is external node k/Q in state k%Q. Each right-hand
// side is laid out on its own, its nonterminal edges summarized by the
// skeletons already folded, and one Dijkstra runs from each of its R
// external product nodes.
func (e *Engine) skeletons(tk *ticker, op string, a *automaton) ([][]int64, error) {
	var g product
	Q := int32(a.states)
	return fold(e, tk, op, func(h *hypergraph.Graph, skel [][]int64) ([]int64, error) {
		ext := h.Ext()
		if len(ext) == 0 {
			return nil, nil // the start graph has no external nodes
		}
		g.addBlock(h, -1, hypergraph.NoEdge)
		if err := g.build(e, a, skel, 0); err != nil {
			return nil, err
		}
		r := int32(len(ext)) * Q
		sk := make([]int64, r*r)
		for i := range r {
			if _, err := g.dijkstra(tk, op, int32(ext[i/Q])*Q+i%Q, -1, nil, nil); err != nil {
				return nil, err
			}
			for j := range r {
				sk[i*r+j] = g.fwd.dist[int32(ext[j/Q])*Q+j%Q]
			}
		}
		return sk, nil
	})
}

// expand lays out the path-expanded graph of a (u, v) query in the
// scratch, in product with a: the right-hand sides along both
// G-representations, sharing the blocks of their common prefix, with
// every other nonterminal edge replaced by its skeleton arcs from
// skel. The start graph's block gets its IDs but none of its edges:
// the search reads S′ in place instead (startWalk). It returns u's product node
// in a's start state and v's ID.
func (e *Engine) expand(s *scratch, a *automaton, skel [][]int64, u, v int64) (src, dst int32, err error) {
	l1, l2 := &s.loc1, &s.loc2
	if err := e.locateInto(l1, u); err != nil {
		return 0, 0, err
	}
	if err := e.locateInto(l2, v); err != nil {
		return 0, 0, err
	}
	g := &s.pg
	b1 := g.addBlock(e.g.Start, -1, hypergraph.NoEdge)
	b2 := b1
	for n, id := range l1.Path {
		b1 = g.addBlock(l1.Graphs[n+1], b1, id)
	}
	shared := true
	for n, id := range l2.Path {
		shared = shared && n < len(l1.Path) && l1.Path[n] == id
		if shared {
			b2 = n + 1 // l1's block at this level
		} else {
			b2 = g.addBlock(l2.Graphs[n+1], b2, id)
		}
	}
	if err := g.build(e, a, skel, 1); err != nil {
		return 0, 0, err
	}
	return g.id(b1, l1.Node)*g.q + int32(a.start), g.id(b2, l2.Node), nil
}
