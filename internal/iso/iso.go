// Package iso provides an exact graph-isomorphism test for directed,
// edge-labeled hypergraphs, used by the test suite to validate that
// decompressed graphs are isomorphic to the compressor's input
// (SL-HR grammars reproduce the input only up to isomorphism).
//
// The algorithm is color-refinement-guided backtracking: both graphs
// are refined with a cross-graph-comparable variant of the FP fixpoint
// of the paper (colors are content hashes rather than rank indices),
// then nodes are matched class by class, rarest classes first. This is
// exponential in the worst case but fast for the graph sizes used in
// tests (hundreds of nodes).
package iso

import (
	"sort"

	"graphrepair/internal/hypergraph"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, v uint64) uint64 { return (h ^ v) * fnvPrime }

// colors computes cross-graph-comparable refinement colors: the color
// of a node is a hash of its degree and, iteratively, of the sorted
// (label, myPos, otherPos, neighborColor) tuples of its incidence.
// Refinement runs until the number of distinct colors is stable (the
// fixpoint), capped at maxRounds.
func colors(g *hypergraph.Graph, maxRounds int) map[hypergraph.NodeID]uint64 {
	col := make(map[hypergraph.NodeID]uint64, g.NumNodes())
	for _, v := range g.Nodes() {
		col[v] = mix(fnvOffset, uint64(g.Degree(v)))
	}
	classes := countColors(col)
	for r := 0; r < maxRounds; r++ {
		next := make(map[hypergraph.NodeID]uint64, len(col))
		for _, v := range g.Nodes() {
			var tuples []uint64
			for id := range g.IncidentSeq(v) {
				att := g.Att(id)
				my := g.AttPos(id, v)
				for op, u := range att {
					if u == v {
						continue
					}
					h := mix(fnvOffset, uint64(g.Label(id)))
					h = mix(h, uint64(my))
					h = mix(h, uint64(op))
					h = mix(h, col[u])
					tuples = append(tuples, h)
				}
			}
			sort.Slice(tuples, func(a, b int) bool { return tuples[a] < tuples[b] })
			h := mix(fnvOffset, col[v])
			for _, t := range tuples {
				h = mix(h, t)
			}
			next[v] = h
		}
		col = next
		if c := countColors(col); c == classes {
			break
		} else {
			classes = c
		}
	}
	return col
}

func countColors(col map[hypergraph.NodeID]uint64) int {
	seen := make(map[uint64]bool, len(col))
	for _, c := range col {
		seen[c] = true
	}
	return len(seen)
}

type matcher struct {
	a, b *hypergraph.Graph
	// mapping a-node -> b-node and its inverse.
	fwd map[hypergraph.NodeID]hypergraph.NodeID
	rev map[hypergraph.NodeID]hypergraph.NodeID
	// remaining b-edge multiset keyed by (label, mapped attachment).
	bEdges map[string]int
	// candidate b-nodes per a-node (same refinement color).
	cand map[hypergraph.NodeID][]hypergraph.NodeID
	// a-nodes in assignment order.
	seq []hypergraph.NodeID
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
	for id := range m.a.IncidentSeq(av) {
		att := m.a.Att(id)
		mapped := make([]hypergraph.NodeID, len(att))
		full := true
		for i, u := range att {
			w, has := m.fwd[u]
			if !has {
				full = false
				break
			}
			mapped[i] = w
		}
		if !full {
			continue
		}
		k := edgeKeyStr(m.a.Label(id), mapped)
		if m.bEdges[k] == 0 {
			// rollback partial consumption
			for _, ck := range consumed {
				m.bEdges[ck]++
			}
			delete(m.fwd, av)
			delete(m.rev, bv)
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
	delete(m.fwd, av)
	delete(m.rev, bv)
}

func (m *matcher) search(i int) bool {
	if i == len(m.seq) {
		return true
	}
	av := m.seq[i]
	for _, bv := range m.cand[av] {
		if _, used := m.rev[bv]; used {
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

// Isomorphic reports whether a and b are isomorphic as directed
// edge-labeled hypergraphs. If both graphs have external nodes, the
// isomorphism is additionally required to map ext(a) to ext(b)
// pointwise.
func Isomorphic(a, b *hypergraph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Rank() != b.Rank() {
		return false
	}
	ca, cb := colors(a, a.NumNodes()+1), colors(b, b.NumNodes()+1)

	// Color class sizes must agree.
	histA := map[uint64]int{}
	for _, c := range ca {
		histA[c]++
	}
	histB := map[uint64]int{}
	for _, c := range cb {
		histB[c]++
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
		fwd:    map[hypergraph.NodeID]hypergraph.NodeID{},
		rev:    map[hypergraph.NodeID]hypergraph.NodeID{},
		bEdges: map[string]int{},
		cand:   map[hypergraph.NodeID][]hypergraph.NodeID{},
	}
	byColorB := map[uint64][]hypergraph.NodeID{}
	for _, v := range b.Nodes() {
		byColorB[cb[v]] = append(byColorB[cb[v]], v)
	}
	for _, v := range a.Nodes() {
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
		if consumed, ok := m.tryAssign(extA[i], extB[i]); !ok {
			return false
		} else {
			_ = consumed
		}
	}

	// Assign remaining nodes in a connectivity-guided order: always
	// prefer a node adjacent to the already-assigned region (so each
	// assignment is immediately constrained by mapped edges), breaking
	// ties by rarest color class. Without this, graphs made of many
	// isomorphic components make plain backtracking explode.
	assigned := make(map[hypergraph.NodeID]bool, a.NumNodes())
	for v := range m.fwd {
		assigned[v] = true
	}
	var frontier []hypergraph.NodeID
	inSeq := make(map[hypergraph.NodeID]bool, a.NumNodes())
	pushNbs := func(v hypergraph.NodeID) {
		for _, u := range a.Neighbors(v) {
			if !assigned[u] && !inSeq[u] {
				inSeq[u] = true
				frontier = append(frontier, u)
			}
		}
	}
	for v := range m.fwd {
		pushNbs(v)
	}
	remaining := make([]hypergraph.NodeID, 0, a.NumNodes())
	for _, v := range a.Nodes() {
		if !assigned[v] {
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
	taken := make(map[hypergraph.NodeID]bool, a.NumNodes())
	for len(m.seq) < len(remaining) {
		var pick hypergraph.NodeID
		// Prefer the rarest-class frontier node.
		best := -1
		for i, v := range frontier {
			if taken[v] {
				continue
			}
			if best < 0 || histA[ca[v]] < histA[ca[frontier[best]]] {
				best = i
			}
		}
		if best >= 0 {
			pick = frontier[best]
		} else {
			for _, v := range remaining {
				if !taken[v] {
					pick = v
					break
				}
			}
		}
		taken[pick] = true
		m.seq = append(m.seq, pick)
		pushNbs(pick)
	}
	return m.search(0)
}
