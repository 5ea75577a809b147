package hypergraph

import (
	"fmt"
	"sort"

	"graphrepair/internal/buf"
)

// Triple is a directed labeled edge (s, p, o) in RDF reading order:
// an edge from Src to Dst labeled Label.
type Triple struct {
	Src, Dst NodeID
	Label    Label
}

// FromTriples builds a simple graph with nodes 1..n from a triple
// list. Triples with Src == Dst (self-loops, excluded by the paper's
// hypergraph restriction) and exact duplicates are skipped; the count
// of skipped triples is returned alongside the graph.
func FromTriples(n int, triples []Triple) (*Graph, int) {
	g := New(n)
	seen := make(map[Triple]bool, len(triples))
	skipped := 0
	for _, t := range triples {
		if t.Src == t.Dst || seen[t] {
			skipped++
			continue
		}
		seen[t] = true
		g.AddEdge(t.Label, t.Src, t.Dst)
	}
	return g, skipped
}

// Triples extracts all rank-2 edges as triples, sorted. Panics if the
// graph contains hyperedges of a different rank.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.numEdges)
	for id := range g.EdgesSeq() {
		att := g.Att(id)
		if len(att) != 2 {
			panic(fmt.Sprintf("hypergraph: Triples: edge %d has rank %d", id, len(att)))
		}
		out = append(out, Triple{Src: att[0], Dst: att[1], Label: g.Label(id)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Label < b.Label
	})
	return out
}

// OutNeighbors returns the distinct targets of rank-2 edges leaving v,
// ascending. Hyperedges are ignored. Like InNeighbors, it only reads
// the graph (IncidentSeqRO).
func (g *Graph) OutNeighbors(v NodeID) []NodeID {
	var out []NodeID
	for id := range g.IncidentSeqRO(v) {
		if att := g.Att(id); len(att) == 2 && att[0] == v {
			out = append(out, att[1])
		}
	}
	return sortDedup(out, 0)
}

// InNeighbors returns the distinct sources of rank-2 edges entering v,
// ascending. Hyperedges are ignored.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	var out []NodeID
	for id := range g.IncidentSeqRO(v) {
		if att := g.Att(id); len(att) == 2 && att[1] == v {
			out = append(out, att[0])
		}
	}
	return sortDedup(out, 0)
}

// Neighbors returns all distinct nodes sharing an edge with v
// (any rank, any direction), ascending, excluding v itself.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.AppendNeighbors(nil, v) }

// EqualSimple reports whether two graphs have identical alive node ID
// sets and identical rank-2 triple sets. It is an exact (not
// isomorphism) comparison for simple graphs.
func EqualSimple(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	an, bn := a.Nodes(), b.Nodes()
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	at, bt := a.Triples(), b.Triples()
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
	}
	return true
}

// EqualHyper reports whether two graphs are identical as hypergraphs:
// same alive node IDs, same external sequence, and the same multiset
// of (label, attachment) edges.
func EqualHyper(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Rank() != b.Rank() {
		return false
	}
	an, bn := a.Nodes(), b.Nodes()
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	for i := range a.ext {
		if a.ext[i] != b.ext[i] {
			return false
		}
	}
	key := func(g *Graph, id EdgeID) string {
		s := fmt.Sprint(g.Label(id), ":")
		for _, v := range g.Att(id) {
			s += fmt.Sprint(v, ",")
		}
		return s
	}
	count := map[string]int{}
	for id := range a.EdgesSeq() {
		count[key(a, id)]++
	}
	for id := range b.EdgesSeq() {
		count[key(b, id)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// Components is the reusable state behind WeakComponentsInto: a flat
// component-index array plus per-component representatives, grown
// lazily and reused across calls so the steady state allocates
// nothing.
type Components struct {
	// Comp maps NodeID → component index (valid for alive nodes only).
	Comp []int32
	// Reps holds each component's smallest node; components are
	// numbered in ascending order of their representative.
	Reps  []NodeID
	stack []NodeID
}

// WeakComponentsInto computes the weakly connected components of the
// graph (hyperedges connect all their attached nodes) into cs and
// returns the component count. Components are numbered by smallest
// contained node, ascending; cs.Reps[i] is that node. All state is
// reused, so a warm call allocates nothing — the allocation-free form
// of WeakComponents. The graph is only read (IncidentSeqRO), so
// concurrent calls on one unmutated graph are safe.
func (g *Graph) WeakComponentsInto(cs *Components) int {
	cs.Comp = buf.GrowFill(cs.Comp, len(g.nodeAlive), -1)
	cs.Reps = cs.Reps[:0]
	comp := cs.Comp
	// Every node is pushed at most once, so the node count bounds the
	// stack; sizing it once avoids append's growth on a giant component.
	stack := cs.stack[:0]
	if cap(stack) < g.numNodes {
		stack = make([]NodeID, 0, g.numNodes)
	}
	for v := NodeID(1); int(v) < len(g.nodeAlive); v++ {
		if !g.nodeAlive[v] || comp[v] >= 0 {
			continue
		}
		// v is the smallest node of a fresh component: every smaller
		// node of the component would already have claimed it.
		ci := int32(len(cs.Reps))
		cs.Reps = append(cs.Reps, v)
		comp[v] = ci
		stack = append(stack, v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for id := range g.IncidentSeqRO(u) {
				for _, w := range g.Att(id) {
					if comp[w] < 0 {
						comp[w] = ci
						stack = append(stack, w)
					}
				}
			}
		}
	}
	cs.stack = stack
	return len(cs.Reps)
}

// WeakComponents returns the weakly connected components of the graph.
// Each component lists its nodes ascending; components are ordered by
// smallest node. The nested slices are freshly allocated; callers that
// only need a component index per node should use WeakComponentsInto.
func (g *Graph) WeakComponents() [][]NodeID {
	var cs Components
	n := g.WeakComponentsInto(&cs)
	if n == 0 {
		return nil
	}
	sizes := make([]int32, n)
	for v := NodeID(1); int(v) < len(g.nodeAlive); v++ {
		if g.nodeAlive[v] {
			sizes[cs.Comp[v]]++
		}
	}
	// Carve the component node lists out of one flat block; filling in
	// ascending node order sorts each component.
	flat := make([]NodeID, g.numNodes)
	comps := make([][]NodeID, n)
	pos := int32(0)
	for i, sz := range sizes {
		comps[i] = flat[pos : pos : pos+sz]
		pos += sz
	}
	for v := NodeID(1); int(v) < len(g.nodeAlive); v++ {
		if g.nodeAlive[v] {
			ci := cs.Comp[v]
			comps[ci] = append(comps[ci], v)
		}
	}
	return comps
}

// ReachScratch holds the reusable BFS state for ReachableWith. A
// zero-value scratch is ready to use; the visited table and queue grow
// to the graph size once and are reused across calls (Components-style).
type ReachScratch struct {
	visited []bool
	queue   []NodeID
}

// Reachable reports whether dst is reachable from src following rank-2
// edge directions (BFS on the uncompressed graph). Used as the ground
// truth for grammar-based reachability. Allocates fresh BFS state per
// call; harnesses issuing thousands of probes should hold a
// ReachScratch and call ReachableWith instead.
func (g *Graph) Reachable(src, dst NodeID) bool {
	var rs ReachScratch
	return g.ReachableWith(&rs, src, dst)
}

// ReachableWith is Reachable with caller-owned scratch: zero
// allocations once rs has warmed to the graph size. The queue is
// consumed by an index cursor rather than re-slicing the head off, so
// the backing array stays fully reusable. The graph is only read
// (IncidentSeqRO), so goroutines probing one unmutated graph, each
// with its own scratch, do not race.
func (g *Graph) ReachableWith(rs *ReachScratch, src, dst NodeID) bool {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return false
	}
	if src == dst {
		return true
	}
	rs.visited = buf.GrowClear(rs.visited, len(g.nodeAlive))
	rs.queue = append(rs.queue[:0], src)
	rs.visited[src] = true
	for head := 0; head < len(rs.queue); head++ {
		u := rs.queue[head]
		for id := range g.IncidentSeqRO(u) {
			if att := g.Att(id); len(att) == 2 && att[0] == u && !rs.visited[att[1]] {
				if att[1] == dst {
					return true
				}
				rs.visited[att[1]] = true
				rs.queue = append(rs.queue, att[1])
			}
		}
	}
	return false
}
