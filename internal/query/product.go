package query

import (
	"math"

	"graphrepair/internal/buf"
	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// The query phase's one search structure is the path-expanded graph of
// Thm. 6 in product with an automaton, over dense int32 IDs. Reachable
// and Distance take the product with anyLabel, which leaves the graph
// as it is; an RPQ takes it with its NFA (the "regular path queries"
// extension the paper's conclusion names). The same builder lays out
// one right-hand side for the bottom-up skeleton pass and the glued
// right-hand sides of a query, so there is one skeleton builder, one
// BFS and one Dijkstra.

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
	q      int32   // automaton states
	head   []int32 // first arc out of each product node, -1 if none
	arcs   []arc
	dist   []int64 // per product node; maxDist = not reached
	queue  []int32
	heap   []heapItem
}

// block is one right-hand side laid out in a product: its graph, its
// first ID, and the nonterminal edges of h expanded as child blocks,
// which therefore contribute no skeleton arcs. A bare block lays out
// its IDs but none of its edges.
type block struct {
	h    *hypergraph.Graph
	base int32
	skip [2]hypergraph.EdgeID
	bare bool
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
	for x := range int32(h.MaxNodeID()) + 1 {
		g.rep = append(g.rep, base+x)
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

// build chains the arcs of every block's edges in product with a:
// terminal edges step the automaton, nonterminal edges that are not
// child blocks contribute the finite off-diagonal entries of their
// skeletons (skel, rule-indexed). Bare blocks contribute nothing.
func (g *product) build(e *Engine, a *automaton, skel [][]int64) error {
	n := int64(len(g.rep)) * int64(a.states)
	if n > math.MaxInt32 {
		return &govern.LimitError{Resource: "expanded product nodes", Demanded: n, Allowed: math.MaxInt32}
	}
	Q := int32(a.states)
	g.q = Q
	g.head = buf.GrowFill(g.head, int(n), -1)
	g.arcs = g.arcs[:0]
	for _, b := range g.blocks {
		if b.bare {
			continue
		}
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
						g.addArc(x+q, y+p, 1)
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
						g.addArc(x, g.rep[b.base+int32(att[j/Q])]*Q+j%Q, d)
					}
				}
			}
		}
	}
	return nil
}

func (g *product) addArc(x, y int32, w int64) {
	g.arcs = append(g.arcs, arc{to: y, next: g.head[x], w: w})
	g.head[x] = int32(len(g.arcs) - 1)
}

// clearDist marks every product node unreached.
func (g *product) clearDist() {
	g.dist = buf.GrowFill(g.dist, len(g.head), maxDist)
}

// bfs reports whether product node src reaches ID dst in a state
// accept accepts. ctx is polled (through tk) at every expansion.
func (g *product) bfs(tk *ticker, op string, src, dst int32, accept []bool) (bool, error) {
	g.clearDist()
	g.dist[src] = 0
	g.queue = append(g.queue[:0], src)
	for i := 0; i < len(g.queue); i++ {
		if err := tk.check(op); err != nil {
			return false, err
		}
		x := g.queue[i]
		if x/g.q == dst && accept[x%g.q] {
			return true, nil
		}
		for a := g.head[x]; a >= 0; a = g.arcs[a].next {
			if y := g.arcs[a].to; g.dist[y] == maxDist {
				g.dist[y] = g.dist[x] + 1
				g.queue = append(g.queue, y)
			}
		}
	}
	return false, nil
}

// dijkstra computes shortest-path lengths from product node src into
// dist, over a binary min-heap in which a node may appear more than
// once (entries older than dist are skipped on pop). It stops at the
// first settled node of ID dst in a state accept accepts and returns
// its length, or maxDist if there is none; with dst < 0, dist ends up
// exact for every node reachable from src. ctx is polled (through tk)
// at every extraction.
func (g *product) dijkstra(tk *ticker, op string, src, dst int32, accept []bool) (int64, error) {
	g.clearDist()
	g.heap = g.heap[:0]
	g.dist[src] = 0
	g.push(heapItem{0, src})
	for len(g.heap) > 0 {
		if err := tk.check(op); err != nil {
			return 0, err
		}
		it := g.pop()
		if it.d > g.dist[it.x] {
			continue
		}
		if it.x/g.q == dst && accept[it.x%g.q] {
			return it.d, nil
		}
		for a := g.head[it.x]; a >= 0; a = g.arcs[a].next {
			y := g.arcs[a].to
			if nd := addDist(it.d, g.arcs[a].w); nd < g.dist[y] {
				g.dist[y] = nd
				g.push(heapItem{nd, y})
			}
		}
	}
	return maxDist, nil
}

func (g *product) push(it heapItem) {
	g.heap = append(g.heap, it)
	h := g.heap
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

func (g *product) pop() heapItem {
	h := g.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	g.heap = h
	if len(h) == 0 {
		return top
	}
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
	return top
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
		if err := g.build(e, a, skel); err != nil {
			return nil, err
		}
		r := int32(len(ext)) * Q
		sk := make([]int64, r*r)
		for i := range r {
			if _, err := g.dijkstra(tk, op, int32(ext[i/Q])*Q+i%Q, -1, nil); err != nil {
				return nil, err
			}
			for j := range r {
				sk[i*r+j] = g.dist[int32(ext[j/Q])*Q+j%Q]
			}
		}
		return sk, nil
	})
}

// expand lays out the path-expanded graph of a (u, v) query in the
// scratch, in product with a: the start graph and the right-hand sides
// along both G-representations, sharing the blocks of their common
// prefix, with every other nonterminal edge replaced by its skeleton
// arcs from skel. With withStart false the start graph's block is
// bare, so only the right-hand sides along the two paths contribute
// arcs (Reachable adds S′-closure arcs in place of the start graph's).
// It returns u's product node in a's start state and v's ID.
func (e *Engine) expand(s *scratch, a *automaton, skel [][]int64, u, v int64, withStart bool) (src, dst int32, err error) {
	l1, l2 := &s.loc1, &s.loc2
	if err := e.locateInto(l1, u); err != nil {
		return 0, 0, err
	}
	if err := e.locateInto(l2, v); err != nil {
		return 0, 0, err
	}
	g := &s.pg
	b1 := g.addBlock(e.g.Start, -1, hypergraph.NoEdge)
	g.blocks[b1].bare = !withStart
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
	if err := g.build(e, a, skel); err != nil {
		return 0, 0, err
	}
	return g.id(b1, l1.Node)*g.q + int32(a.start), g.id(b2, l2.Node), nil
}
