// Package hypergraph implements the directed, edge-labeled hypergraphs
// of "Compressing Graphs by Grammars" (Maneth & Peternek, ICDE 2016),
// Section II.
//
// A hypergraph over a ranked alphabet is a tuple (V, E, att, lab, ext):
// V is a set of node IDs {1..m}, every edge carries a label and an
// ordered attachment sequence of pairwise-distinct nodes, and ext is a
// sequence of pairwise-distinct external nodes. Ordinary directed
// graphs are the special case where every edge has rank two
// (att = source·target).
//
// The package supports the mutation pattern of the gRePair compressor
// (edges and internal nodes are removed, nonterminal edges inserted) as
// well as the size measures |g|V, |g|E and |g| the paper optimizes.
package hypergraph

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"graphrepair/internal/faultinject"
)

// NodeID identifies a node. Valid IDs are 1-based; 0 means "no node".
type NodeID int32

// EdgeID identifies an edge within one graph. Valid IDs are 0-based.
type EdgeID int32

// NoEdge is the sentinel for an absent edge.
const NoEdge EdgeID = -1

// Label identifies an edge label. Terminal labels are 1..T for an
// alphabet with T terminals; grammar nonterminals extend the space
// above T. Label 0 is reserved (used internally for virtual edges).
type Label int32

// edge is a labeled hyperedge. Its attachment sequence lives in the
// owning graph's attachment arena as an (offset, rank) view — read it
// with Graph.Att — so adding an edge never allocates a per-edge slice
// (DESIGN.md §8). The paper's restriction (1) applies: an attachment
// contains no node twice.
type edge struct {
	label Label
	off   int32 // offset of the attachment in the graph's arena
	rank  int32 // number of attached nodes
}

// incSlot is one link of a node's incidence chain in the graph's
// shared incidence arena. Links are stored 1-based (0 means "none") so
// the zero value of incList is a valid empty chain.
type incSlot struct {
	edge EdgeID
	next int32 // 1-based arena index of the next slot, 0 = end
}

// incList is one node's incidence-chain header: the chain runs from
// head to tail through incSlot.next, in edge insertion order. deg
// counts the alive incident edges (the chain may additionally hold
// tombstoned edges, unlinked lazily by the next traversal).
type incList struct {
	head, tail int32 // 1-based arena indices, 0 = empty
	deg        int32 // alive incident edges
}

// Graph is a mutable hypergraph. Nodes and edges are removed by
// tombstoning; incidence chains drop dead entries lazily (traversals
// unlink them in place, see IncidentSeq).
//
// Edge reads have one contract. An EdgeID is valid only as AddEdge,
// EdgesSeq, IncidentSeq, IncidentSeqRO or AppendIncident handed it
// out; Label, Att and AttPos index the edge arenas directly and check
// nothing, so they inline. Reading a removed edge is a caller bug: it
// returns the edge's last label and attachment. An ID that was never
// allocated panics on the slice bound. Liveness is checked only by the
// mutators and by HasEdge (DESIGN.md §8).
type Graph struct {
	edges     []edge
	att       []NodeID // attachment arena, indexed by edge.off/rank
	edgeAlive []bool
	numEdges  int // alive edges

	nodeAlive []bool // index 0 unused
	numNodes  int    // alive nodes

	incPool  []incSlot // incidence arena; one slot per (edge, attached node)
	inc      []incList // per node: incidence chain header
	ext      []NodeID
	extIndex []int32 // per node: position in ext, or -1
}

// New returns a graph with nodes 1..n and no edges.
func New(n int) *Graph {
	g := &Graph{
		nodeAlive: make([]bool, n+1),
		numNodes:  n,
		inc:       make([]incList, n+1),
		extIndex:  make([]int32, n+1),
	}
	for i := 1; i <= n; i++ {
		g.nodeAlive[i] = true
		g.extIndex[i] = -1
	}
	g.extIndex[0] = -1
	return g
}

// NewReserved returns a graph with nodes 1..n whose backing storage is
// pre-sized for exactly `edges` AddEdge calls carrying attLen
// attachment nodes in total, plus one SetExt call with ext external
// nodes, using a minimal number of allocations: the node and edge
// liveness tables share one bool block and the attachment arena shares
// one NodeID block with the external sequence. This is the rule-graph
// materialization path of the compressor — every created rule builds
// one small graph whose exact sizes are known up front, so the
// constructor's fixed allocation count (rather than AddEdge growth
// churn) is the entire per-rule cost (DESIGN.md §10).
func NewReserved(n, edges, attLen, ext int) *Graph {
	bools := make([]bool, n+1+edges)
	nodeIDs := make([]NodeID, attLen+ext)
	g := &Graph{
		nodeAlive: bools[: n+1 : n+1],
		edgeAlive: bools[n+1 : n+1 : n+1+edges],
		numNodes:  n,
		inc:       make([]incList, n+1),
		extIndex:  make([]int32, n+1),
		edges:     make([]edge, 0, edges),
		att:       nodeIDs[:0:attLen],
		ext:       nodeIDs[attLen : attLen : attLen+ext],
		incPool:   make([]incSlot, 0, attLen),
	}
	for i := 1; i <= n; i++ {
		g.nodeAlive[i] = true
		g.extIndex[i] = -1
	}
	g.extIndex[0] = -1
	return g
}

// NumNodes returns the number of alive nodes (|g|V).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of alive edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// MaxNodeID returns the largest node ID ever allocated. Alive node IDs
// are a subset of 1..MaxNodeID.
func (g *Graph) MaxNodeID() NodeID { return NodeID(len(g.nodeAlive) - 1) }

// MaxEdgeID returns one past the largest edge ID ever allocated.
func (g *Graph) MaxEdgeID() EdgeID { return EdgeID(len(g.edges)) }

// EdgeCap returns the edge-table capacity: MaxEdgeID can reach it
// through AddEdge before the edge tables reallocate (see Reserve).
func (g *Graph) EdgeCap() int { return cap(g.edges) }

// HasNode reports whether node v is alive.
func (g *Graph) HasNode(v NodeID) bool {
	return v >= 1 && int(v) < len(g.nodeAlive) && g.nodeAlive[v]
}

// HasEdge reports whether edge id is alive.
func (g *Graph) HasEdge(id EdgeID) bool {
	return id >= 0 && int(id) < len(g.edges) && g.edgeAlive[id]
}

// AddNode allocates a fresh node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.nodeAlive = append(g.nodeAlive, true)
	g.inc = append(g.inc, incList{})
	g.extIndex = append(g.extIndex, -1)
	g.numNodes++
	return NodeID(len(g.nodeAlive) - 1)
}

// ReserveNodes pre-grows the node tables so the next n AddNode calls
// do not reallocate them.
func (g *Graph) ReserveNodes(n int) {
	g.nodeAlive = slices.Grow(g.nodeAlive, n)
	g.inc = slices.Grow(g.inc, n)
	g.extIndex = slices.Grow(g.extIndex, n)
}

// AddEdge inserts a hyperedge with the given label and attachment
// sequence and returns its ID. It panics if an attachment node is dead
// or repeated (paper restriction (1) excludes self-loops). The
// attachment is copied into the graph's arena and each attached node's
// incidence chain grows by one shared-arena slot, so on warm capacity
// (see Reserve) the call allocates nothing at all.
func (g *Graph) AddEdge(label Label, att ...NodeID) EdgeID {
	for i, v := range att {
		if !g.HasNode(v) {
			panic(fmt.Sprintf("hypergraph: AddEdge attachment %d: node %d not alive", i, v))
		}
		for j := 0; j < i; j++ {
			if att[j] == v {
				panic(fmt.Sprintf("hypergraph: AddEdge: node %d attached twice", v))
			}
		}
	}
	// The failpoint stands in for an arena-growth allocation failure:
	// AddEdge has no error return, so the fault surfaces as a panic
	// that the facade's recover backstop must convert to an error.
	if faultinject.Enabled {
		faultinject.HitPanic(faultinject.HypergraphGrow)
	}
	id := EdgeID(len(g.edges))
	off := int32(len(g.att))
	g.att = append(g.att, att...)
	g.edges = append(g.edges, edge{label: label, off: off, rank: int32(len(att))})
	g.edgeAlive = append(g.edgeAlive, true)
	g.numEdges++
	for _, v := range att {
		g.incPool = append(g.incPool, incSlot{edge: id})
		slot := int32(len(g.incPool)) // 1-based
		lst := &g.inc[v]
		if lst.tail == 0 {
			lst.head = slot
		} else {
			g.incPool[lst.tail-1].next = slot
		}
		lst.tail = slot
		lst.deg++
	}
	return id
}

// Reserve pre-grows the edge tables, the attachment arena and the
// incidence arena so the next edges additional AddEdge calls (carrying
// attLen attachment nodes in total) do not reallocate them. Every
// attachment node consumes exactly one incidence slot, so attLen also
// bounds the incidence-arena growth.
func (g *Graph) Reserve(edges, attLen int) {
	g.edges = slices.Grow(g.edges, edges)
	g.edgeAlive = slices.Grow(g.edgeAlive, edges)
	g.att = slices.Grow(g.att, attLen)
	g.incPool = slices.Grow(g.incPool, attLen)
}

// Label returns the label of edge id (see Graph for the read
// contract).
func (g *Graph) Label(id EdgeID) Label { return g.edges[id].label }

// Att returns the attachment sequence of edge id (see Graph for the
// read contract). The result is a view into the graph's attachment
// arena: it stays valid and correct for the life of the graph
// (attachments are immutable once added) but must not be mutated. Its
// capacity is clipped, so appends by callers cannot clobber the arena.
func (g *Graph) Att(id EdgeID) []NodeID {
	e := &g.edges[id]
	return g.att[e.off : e.off+e.rank : e.off+e.rank]
}

// RemoveEdge tombstones an edge. Incidence-chain entries are unlinked
// lazily by the next traversal of each attached node's chain.
func (g *Graph) RemoveEdge(id EdgeID) {
	if !g.HasEdge(id) {
		panic(fmt.Sprintf("hypergraph: RemoveEdge: edge %d not alive", id))
	}
	g.edgeAlive[id] = false
	g.numEdges--
	for _, v := range g.Att(id) {
		if g.HasNode(v) {
			g.inc[v].deg--
		}
	}
}

// RemoveNode removes a node. The node must have no alive incident
// edges and must not be external.
func (g *Graph) RemoveNode(v NodeID) {
	if !g.HasNode(v) {
		panic(fmt.Sprintf("hypergraph: RemoveNode: node %d not alive", v))
	}
	if g.extIndex[v] >= 0 {
		panic(fmt.Sprintf("hypergraph: RemoveNode: node %d is external", v))
	}
	if g.Degree(v) != 0 {
		panic(fmt.Sprintf("hypergraph: RemoveNode: node %d still has incident edges", v))
	}
	g.nodeAlive[v] = false
	// Abandon the chain; its slots stay in the arena until the graph is
	// cloned or compacted.
	g.inc[v] = incList{}
	g.numNodes--
}

// AppendIncident appends the alive edges incident with v in insertion
// order to dst and returns it: a mutation-stable snapshot, for callers
// that change v's incidence while walking it.
func (g *Graph) AppendIncident(dst []EdgeID, v NodeID) []EdgeID {
	for id := range g.IncidentSeq(v) {
		dst = append(dst, id)
	}
	return dst
}

// IncidentSeq iterates the alive edges incident with v in insertion
// order by walking v's incidence chain, unlinking tombstoned entries
// in passing (so repeated traversals do not re-skip them). The loop
// body must not mutate v's incidence (no edge additions touching v,
// and no concurrent traversal of v's chain — including
// AppendIncident or AppendNeighbors on v); callers that need to
// mutate while iterating should snapshot with AppendIncident first.
// Removing the yielded edge itself, and adding or removing edges that
// do not touch v, are safe.
func (g *Graph) IncidentSeq(v NodeID) iter.Seq[EdgeID] {
	return func(yield func(EdgeID) bool) {
		prev := int32(0)
		cur := g.inc[v].head
		for cur != 0 {
			s := &g.incPool[cur-1]
			next := s.next
			if !g.edgeAlive[s.edge] {
				// Unlink the dead slot (lazy compaction).
				if prev == 0 {
					g.inc[v].head = next
				} else {
					g.incPool[prev-1].next = next
				}
				if next == 0 {
					g.inc[v].tail = prev
				}
				cur = next
				continue
			}
			// Read next before yielding: the body may remove this edge
			// or grow the arena (edges not touching v), and must only
			// observe the chain through fresh indices afterwards.
			if !yield(s.edge) {
				return
			}
			prev = cur
			cur = next
		}
	}
}

// IncidentSeqRO iterates the alive edges incident with v in insertion
// order without mutating the graph: tombstoned chain slots are skipped
// but never unlinked. This is the traversal for shared read-only
// graphs — any number of goroutines may run IncidentSeqRO (and the
// other pure readers) concurrently on a graph nobody mutates, whereas
// IncidentSeq compacts the chain in passing and therefore writes. The
// query engine reads only through it; a decoded or compacted graph has
// no dead slots, so there the two traversals do identical work.
func (g *Graph) IncidentSeqRO(v NodeID) iter.Seq[EdgeID] {
	return func(yield func(EdgeID) bool) {
		for cur := g.inc[v].head; cur != 0; {
			s := &g.incPool[cur-1]
			if g.edgeAlive[s.edge] && !yield(s.edge) {
				return
			}
			cur = s.next
		}
	}
}

// AppendNeighbors appends the distinct nodes sharing an edge with v
// (any rank, any direction, excluding v), ascending, to dst and
// returns it — the allocation-free form of Neighbors for callers that
// reuse a buffer across nodes. It only reads the graph (IncidentSeqRO),
// so a BFS or DFS order of a shared input writes nothing to it.
func (g *Graph) AppendNeighbors(dst []NodeID, v NodeID) []NodeID {
	base := len(dst)
	for id := range g.IncidentSeqRO(v) {
		for _, u := range g.Att(id) {
			if u != v {
				dst = append(dst, u)
			}
		}
	}
	return sortDedup(dst, base)
}

// sortDedup sorts dst[base:] ascending, drops repeats and returns
// dst trimmed to the result.
func sortDedup(dst []NodeID, base int) []NodeID {
	tail := dst[base:]
	slices.Sort(tail)
	return dst[:base+len(slices.Compact(tail))]
}

// Degree returns the number of alive edges incident with v in O(1).
func (g *Graph) Degree(v NodeID) int {
	return int(g.inc[v].deg)
}

// AttPos returns the position (0-based) of v in att(id), or -1 (see
// Graph for the read contract).
func (g *Graph) AttPos(id EdgeID, v NodeID) int {
	for i, u := range g.Att(id) {
		if u == v {
			return i
		}
	}
	return -1
}

// Ext returns the external node sequence (aliases storage).
func (g *Graph) Ext() []NodeID { return g.ext }

// Rank returns the number of external nodes, rank(g) = |ext|.
func (g *Graph) Rank() int { return len(g.ext) }

// SetExt replaces the external node sequence. Panics on dead or
// repeated nodes (paper restriction (2)).
func (g *Graph) SetExt(ext ...NodeID) {
	for _, v := range g.ext {
		g.extIndex[v] = -1
	}
	for i, v := range ext {
		if !g.HasNode(v) {
			panic(fmt.Sprintf("hypergraph: SetExt: node %d not alive", v))
		}
		for j := 0; j < i; j++ {
			if ext[j] == v {
				panic(fmt.Sprintf("hypergraph: SetExt: node %d external twice", v))
			}
		}
	}
	if len(g.ext) == 0 && cap(g.ext) >= len(ext) {
		// First SetExt on a graph with carved external capacity (see
		// NewReserved): fill it in place. Replacing a non-empty ext
		// still copies fresh, so slices returned by Ext earlier stay
		// stable.
		g.ext = append(g.ext[:0], ext...)
	} else {
		g.ext = append([]NodeID(nil), ext...)
	}
	for i, v := range g.ext {
		g.extIndex[v] = int32(i)
	}
}

// ExtIndex returns v's position in ext, or -1 if v is internal.
func (g *Graph) ExtIndex(v NodeID) int {
	if !g.HasNode(v) {
		return -1
	}
	return int(g.extIndex[v])
}

// IsExternal reports whether v is an external node.
func (g *Graph) IsExternal(v NodeID) bool { return g.ExtIndex(v) >= 0 }

// Nodes returns all alive node IDs in ascending order. The slice is
// freshly allocated; loops that run per stage should reuse a buffer
// via AppendNodes instead.
func (g *Graph) Nodes() []NodeID {
	return g.AppendNodes(make([]NodeID, 0, g.numNodes))
}

// AppendNodes appends all alive node IDs in ascending order to dst and
// returns it — the allocation-free form of Nodes for callers that
// reuse a buffer across calls.
func (g *Graph) AppendNodes(dst []NodeID) []NodeID {
	dst = slices.Grow(dst, g.numNodes)
	for v := NodeID(1); int(v) < len(g.nodeAlive); v++ {
		if g.nodeAlive[v] {
			dst = append(dst, v)
		}
	}
	return dst
}

// EdgesSeq iterates the alive edge IDs in ascending order without
// allocating, mirroring IncidentSeq. The loop body may remove the
// yielded edge and may add new edges (edges added during the iteration
// are not yielded; edges removed before being reached are skipped).
func (g *Graph) EdgesSeq() iter.Seq[EdgeID] {
	return func(yield func(EdgeID) bool) {
		// Snapshot the length: edges appended by the loop body are not
		// part of the iteration even if the backing array reallocates.
		n := EdgeID(len(g.edges))
		for id := EdgeID(0); id < n; id++ {
			if g.edgeAlive[id] && !yield(id) {
				return
			}
		}
	}
}

// EdgeSize returns |g|E: edges of rank <= 2 count one, larger
// hyperedges count their rank (paper Sec. II).
func (g *Graph) EdgeSize() int {
	s := 0
	for id, e := range g.edges {
		if !g.edgeAlive[id] {
			continue
		}
		if r := int(e.rank); r > 2 {
			s += r
		} else {
			s++
		}
	}
	return s
}

// TotalSize returns |g| = |g|V + |g|E.
func (g *Graph) TotalSize() int { return g.numNodes + g.EdgeSize() }

// Clone returns a deep copy of the graph, compacted: dead nodes and
// edges are dropped but IDs of alive nodes are preserved; edge IDs are
// renumbered densely in ascending order of the old IDs. Attachments
// and incidence chains are packed into freshly sized arenas — each
// node's chain occupies one contiguous arena segment, so traversals of
// the clone walk sequential memory — and the copy makes a constant
// number of allocations.
func (g *Graph) Clone() *Graph { return g.CloneReserve(0, 0) }

// CloneReserve is Clone with the copy's edge tables, attachment arena
// and incidence arena allocated with room for edges more AddEdge calls
// carrying extraAtt attachment nodes in total, as Reserve would leave
// them, but without a second allocation and copy.
func (g *Graph) CloneReserve(edges, extraAtt int) *Graph {
	c := &Graph{
		nodeAlive: append([]bool(nil), g.nodeAlive...),
		numNodes:  g.numNodes,
		inc:       make([]incList, len(g.inc)),
		extIndex:  append([]int32(nil), g.extIndex...),
		ext:       append([]NodeID(nil), g.ext...),
	}
	attLen := 0
	for id, e := range g.edges {
		if g.edgeAlive[id] {
			attLen += int(e.rank)
			for _, v := range g.Att(EdgeID(id)) {
				c.inc[v].deg++
			}
		}
	}
	// Carve every incidence chain out of one exactly sized arena:
	// node v's slots are the contiguous 1-based range
	// [head, head+deg), chained in ascending order; a per-node cursor
	// (reusing tail) tracks the next free slot while edges are copied
	// in ascending new-ID order, which reproduces insertion order.
	c.incPool = make([]incSlot, attLen, attLen+extraAtt)
	pos := int32(1)
	for v := range c.inc {
		if d := c.inc[v].deg; d > 0 {
			c.inc[v].head = pos
			c.inc[v].tail = pos // fill cursor; final tail = pos+d-1
			for s := pos; s < pos+d-1; s++ {
				c.incPool[s-1].next = s + 1
			}
			pos += d
		}
	}
	c.edges = make([]edge, 0, g.numEdges+edges)
	c.att = make([]NodeID, 0, attLen+extraAtt)
	c.edgeAlive = make([]bool, 0, g.numEdges+edges)
	for id, e := range g.edges {
		if !g.edgeAlive[id] {
			continue
		}
		nid := EdgeID(len(c.edges))
		att := g.Att(EdgeID(id))
		c.edges = append(c.edges, edge{label: e.label, off: int32(len(c.att)), rank: e.rank})
		c.att = append(c.att, att...)
		c.edgeAlive = append(c.edgeAlive, true)
		c.numEdges++
		for _, v := range att {
			c.incPool[c.inc[v].tail-1].edge = nid
			c.inc[v].tail++
		}
	}
	// Rewind the fill cursors to the real chain tails.
	for v := range c.inc {
		if c.inc[v].deg > 0 {
			c.inc[v].tail--
		}
	}
	return c
}

// Compact renumbers alive nodes to 1..NumNodes (in ascending old-ID
// order) and alive edges to 0..NumEdges-1, returning the node mapping
// old → new as a flat slice indexed by old ID (entry 0 and dead nodes
// map to 0, "no node"). The graph is rebuilt in place, reusing every
// existing pool: dense new IDs never exceed old IDs, so the edge table
// and the attachment arena are compacted forward in one pass each, and
// the incidence chains are re-carved into the truncated incidence
// arena as per-node contiguous segments (the Clone layout). Beyond the
// returned remap slice — one allocation, where the pre-PR-7 map cost
// one per bucket — the rebuild allocates nothing (DESIGN.md §10, §12).
func (g *Graph) Compact() []NodeID {
	remap := make([]NodeID, len(g.nodeAlive))
	// extIndex doubles as the flat old→new node table during the
	// rewrite; it is rebuilt from the remapped ext sequence at the end.
	next := NodeID(1)
	for v := NodeID(1); int(v) < len(g.nodeAlive); v++ {
		if g.nodeAlive[v] {
			remap[v] = next
			g.extIndex[v] = int32(next)
			next++
		}
	}
	for i, v := range g.ext {
		g.ext[i] = NodeID(g.extIndex[v])
	}
	// Forward compaction of edges and attachments: the write offsets
	// trail the read offsets, so in-place copy-and-remap is safe.
	wo, ao := 0, int32(0)
	for id := range g.edges {
		e := &g.edges[id]
		if !g.edgeAlive[id] {
			continue
		}
		off, rank := e.off, e.rank
		for k := int32(0); k < rank; k++ {
			g.att[ao+k] = NodeID(g.extIndex[g.att[off+k]])
		}
		g.edges[wo] = edge{label: e.label, off: ao, rank: rank}
		wo++
		ao += rank
	}
	g.edges = g.edges[:wo]
	g.att = g.att[:ao]
	g.edgeAlive = g.edgeAlive[:wo]
	for i := range g.edgeAlive {
		g.edgeAlive[i] = true
	}
	g.numEdges = wo

	n := g.numNodes
	g.nodeAlive = g.nodeAlive[:n+1]
	for v := 1; v <= n; v++ {
		g.nodeAlive[v] = true
	}
	g.extIndex = g.extIndex[:n+1]
	for v := range g.extIndex {
		g.extIndex[v] = -1
	}
	for i, v := range g.ext {
		g.extIndex[v] = int32(i)
	}

	// Re-carve the incidence chains: like Clone, each node's chain
	// occupies one contiguous 1-based segment of the truncated arena,
	// filled in ascending new-edge order (= insertion order).
	g.inc = g.inc[:n+1]
	for v := range g.inc {
		g.inc[v] = incList{}
	}
	g.incPool = g.incPool[:ao]
	for id := range g.edges {
		for _, v := range g.Att(EdgeID(id)) {
			g.inc[v].deg++
		}
	}
	pos := int32(1)
	for v := range g.inc {
		if d := g.inc[v].deg; d > 0 {
			g.inc[v].head = pos
			g.inc[v].tail = pos // fill cursor; final tail = pos+d-1
			for s := pos; s < pos+d-1; s++ {
				g.incPool[s-1].next = s + 1
			}
			g.incPool[pos+d-2].next = 0
			pos += d
		}
	}
	for id := range g.edges {
		for _, v := range g.Att(EdgeID(id)) {
			g.incPool[g.inc[v].tail-1].edge = EdgeID(id)
			g.inc[v].tail++
		}
	}
	for v := range g.inc {
		if g.inc[v].deg > 0 {
			g.inc[v].tail--
		}
	}
	return remap
}

// Relabel rewrites the label of every alive edge through f, in place.
// It is the only label writer: the sharded compressor shifts per-shard
// nonterminal labels into their disjoint global ranges with it before
// merging (DESIGN.md §12), and grammar pruning renumbers the surviving
// nonterminals densely.
func (g *Graph) Relabel(f func(Label) Label) {
	for id := range g.edges {
		if g.edgeAlive[id] {
			g.edges[id].label = f(g.edges[id].label)
		}
	}
}

// Labels returns the sorted set of labels of alive edges.
func (g *Graph) Labels() []Label {
	seen := map[Label]bool{}
	for id, e := range g.edges {
		if g.edgeAlive[id] {
			seen[e.label] = true
		}
	}
	out := make([]Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxRank returns the largest edge rank in the graph (0 if no edges).
func (g *Graph) MaxRank() int {
	m := 0
	for id, e := range g.edges {
		if g.edgeAlive[id] && int(e.rank) > m {
			m = int(e.rank)
		}
	}
	return m
}
