// Package iso provides an exact graph-isomorphism test for directed,
// edge-labeled hypergraphs, used by the test suite to validate that
// decompressed graphs are isomorphic to the compressor's input
// (SL-HR grammars reproduce the input only up to isomorphism).
//
// The algorithm is color-refinement-guided backtracking: both graphs
// are refined with a cross-graph-comparable variant of the FP fixpoint
// of the paper (colors are content hashes rather than rank indices),
// then nodes are matched class by class, rarest classes first. This is
// exponential in the worst case but fast on the graphs the tests
// compare, up to chains of thousands of nodes, whose refinement alone
// takes about n/2 rounds.
package iso

import (
	"container/heap"
	"slices"
	"sort"

	"graphrepair/internal/hypergraph"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, v uint64) uint64 { return (h ^ v) * fnvPrime }

// colors computes cross-graph-comparable refinement colors, indexed
// by NodeID (dead slots stay 0): the color of a node is a hash of its
// degree and, iteratively, of the sorted (label, myPos, otherPos,
// neighborColor) tuples of its incidence. Refinement runs until the
// number of distinct colors is stable (the fixpoint), capped at
// maxRounds.
//
// A path needs about n/2 rounds to reach its fixpoint, so a round
// does no more than it must: the (label, myPos, otherPos) prefix of
// every tuple is hashed once up front into a flat arena, and the
// rounds reuse two color slices, one tuple buffer and one set.
func colors(g *hypergraph.Graph, maxRounds int) []uint64 {
	nodes := g.Nodes()
	// Node i's tuples are prefix[start[i]:start[i+1]], paired with the
	// neighbors nb[start[i]:start[i+1]].
	start := make([]int, len(nodes)+1)
	var prefix []uint64
	var nb []hypergraph.NodeID
	for i, v := range nodes {
		start[i] = len(prefix)
		for id := range g.IncidentSeqRO(v) {
			att := g.Att(id)
			my := g.AttPos(id, v)
			for op, u := range att {
				if u == v {
					continue
				}
				h := mix(fnvOffset, uint64(g.Label(id)))
				h = mix(h, uint64(my))
				prefix = append(prefix, mix(h, uint64(op)))
				nb = append(nb, u)
			}
		}
	}
	start[len(nodes)] = len(prefix)

	col := make([]uint64, int(g.MaxNodeID())+1)
	next := make([]uint64, len(col))
	for _, v := range nodes {
		col[v] = mix(fnvOffset, uint64(g.Degree(v)))
	}
	seen := make(map[uint64]struct{}, len(nodes))
	countColors := func() int {
		clear(seen)
		for _, v := range nodes {
			seen[col[v]] = struct{}{}
		}
		return len(seen)
	}
	classes := countColors()
	tuples := make([]uint64, 0, len(prefix))
	for r := 0; r < maxRounds; r++ {
		for i, v := range nodes {
			tuples = tuples[:0]
			for k := start[i]; k < start[i+1]; k++ {
				tuples = append(tuples, mix(prefix[k], col[nb[k]]))
			}
			slices.Sort(tuples)
			h := mix(fnvOffset, col[v])
			for _, t := range tuples {
				h = mix(h, t)
			}
			next[v] = h
		}
		col, next = next, col
		if c := countColors(); c == classes {
			break
		} else {
			classes = c
		}
	}
	return col
}

type matcher struct {
	a, b *hypergraph.Graph
	// fwd maps an a-node to its b-node and rev inverts it, both
	// indexed by NodeID; 0 (never a node) means unmapped.
	fwd, rev []hypergraph.NodeID
	// remaining b-edge multiset keyed by (label, mapped attachment).
	bEdges map[string]int
	// candidate b-nodes per a-node (same refinement color), indexed by
	// a-node.
	cand [][]hypergraph.NodeID
	// a-nodes in assignment order.
	seq []hypergraph.NodeID
	// mapped is tryAssign's attachment scratch.
	mapped []hypergraph.NodeID
}

func edgeKeyStr(label hypergraph.Label, att []hypergraph.NodeID) string {
	buf := make([]byte, 0, 4+4*len(att))
	put := func(x uint32) {
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	put(uint32(label))
	for _, v := range att {
		put(uint32(v))
	}
	return string(buf)
}

// tryAssign maps a→b and consumes every a-edge whose attachments are
// now fully mapped from the b-edge multiset. It returns a list of
// consumed keys for rollback, or ok=false if some edge has no match.
func (m *matcher) tryAssign(av, bv hypergraph.NodeID) (consumed []string, ok bool) {
	m.fwd[av] = bv
	m.rev[bv] = av
	for id := range m.a.IncidentSeqRO(av) {
		mapped := m.mapped[:0]
		for _, u := range m.a.Att(id) {
			if m.fwd[u] == 0 {
				break
			}
			mapped = append(mapped, m.fwd[u])
		}
		m.mapped = mapped
		if len(mapped) < len(m.a.Att(id)) {
			continue
		}
		k := edgeKeyStr(m.a.Label(id), mapped)
		if m.bEdges[k] == 0 {
			m.undo(av, bv, consumed)
			return nil, false
		}
		m.bEdges[k]--
		consumed = append(consumed, k)
	}
	return consumed, true
}

func (m *matcher) undo(av, bv hypergraph.NodeID, consumed []string) {
	for _, k := range consumed {
		m.bEdges[k]++
	}
	m.fwd[av] = 0
	m.rev[bv] = 0
}

func (m *matcher) search(i int) bool {
	if i == len(m.seq) {
		return true
	}
	av := m.seq[i]
	for _, bv := range m.cand[av] {
		if m.rev[bv] != 0 {
			continue
		}
		if m.b.Degree(bv) != m.a.Degree(av) {
			continue
		}
		consumed, ok := m.tryAssign(av, bv)
		if !ok {
			continue
		}
		if m.search(i + 1) {
			return true
		}
		m.undo(av, bv, consumed)
	}
	return false
}

// frontierItem is an a-node waiting on the assignment frontier, keyed
// by the size of its color class and the order it was reached in.
type frontierItem struct {
	size, order int
	v           hypergraph.NodeID
}

// frontier is a min-heap of frontierItems: rarest class first, then
// first reached.
type frontier []frontierItem

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].size != f[j].size {
		return f[i].size < f[j].size
	}
	return f[i].order < f[j].order
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(frontierItem)) }
func (f *frontier) Pop() any {
	old := *f
	it := old[len(old)-1]
	*f = old[:len(old)-1]
	return it
}

// Isomorphic reports whether a and b are isomorphic as directed
// edge-labeled hypergraphs. If both graphs have external nodes, the
// isomorphism is additionally required to map ext(a) to ext(b)
// pointwise. It only reads a and b, so concurrent calls may share
// them.
func Isomorphic(a, b *hypergraph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Rank() != b.Rank() {
		return false
	}
	ca, cb := colors(a, a.NumNodes()+1), colors(b, b.NumNodes()+1)
	nodesA, nodesB := a.Nodes(), b.Nodes()

	// Color class sizes must agree.
	histA := map[uint64]int{}
	for _, v := range nodesA {
		histA[ca[v]]++
	}
	histB := map[uint64]int{}
	for _, v := range nodesB {
		histB[cb[v]]++
	}
	if len(histA) != len(histB) {
		return false
	}
	for c, n := range histA {
		if histB[c] != n {
			return false
		}
	}

	m := &matcher{
		a:      a,
		b:      b,
		fwd:    make([]hypergraph.NodeID, int(a.MaxNodeID())+1),
		rev:    make([]hypergraph.NodeID, int(b.MaxNodeID())+1),
		bEdges: map[string]int{},
		cand:   make([][]hypergraph.NodeID, int(a.MaxNodeID())+1),
	}
	byColorB := map[uint64][]hypergraph.NodeID{}
	for _, v := range nodesB {
		byColorB[cb[v]] = append(byColorB[cb[v]], v)
	}
	for _, v := range nodesA {
		m.cand[v] = byColorB[ca[v]]
	}
	for id := range b.EdgesSeq() {
		m.bEdges[edgeKeyStr(b.Label(id), b.Att(id))]++
	}

	// Pin external nodes pointwise.
	extA, extB := a.Ext(), b.Ext()
	for i := range extA {
		if ca[extA[i]] != cb[extB[i]] {
			return false
		}
		if _, ok := m.tryAssign(extA[i], extB[i]); !ok {
			return false
		}
	}

	// Assign remaining nodes in a connectivity-guided order: always
	// prefer a node adjacent to the already-assigned region (so each
	// assignment is immediately constrained by mapped edges), breaking
	// ties by rarest color class, then by the order the region reached
	// them. Without this, graphs made of many isomorphic components
	// make plain backtracking explode. Each node enters the frontier
	// heap at most once, so building the order is O(n log n).
	reached := make([]bool, len(m.fwd))
	taken := make([]bool, len(m.fwd))
	var front frontier
	var nbs []hypergraph.NodeID
	pushed := 0
	pushNbs := func(v hypergraph.NodeID) {
		nbs = a.AppendNeighbors(nbs[:0], v)
		for _, u := range nbs {
			if m.fwd[u] == 0 && !reached[u] {
				reached[u] = true
				heap.Push(&front, frontierItem{size: histA[ca[u]], order: pushed, v: u})
				pushed++
			}
		}
	}
	for _, v := range extA {
		pushNbs(v)
	}
	remaining := make([]hypergraph.NodeID, 0, a.NumNodes())
	for _, v := range nodesA {
		if m.fwd[v] == 0 {
			remaining = append(remaining, v)
		}
	}
	sort.Slice(remaining, func(i, j int) bool {
		si, sj := histA[ca[remaining[i]]], histA[ca[remaining[j]]]
		if si != sj {
			return si < sj
		}
		return remaining[i] < remaining[j]
	})
	next := 0 // remaining[:next] are all taken
	for len(m.seq) < len(remaining) {
		var pick hypergraph.NodeID
		for front.Len() > 0 && pick == 0 {
			if it := heap.Pop(&front).(frontierItem); !taken[it.v] {
				pick = it.v
			}
		}
		for ; pick == 0; next++ {
			if !taken[remaining[next]] {
				pick = remaining[next]
			}
		}
		taken[pick] = true
		m.seq = append(m.seq, pick)
		pushNbs(pick)
	}
	return m.search(0)
}
