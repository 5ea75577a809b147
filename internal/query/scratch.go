package query

import "graphrepair/internal/hypergraph"

// scratch is all the per-call mutable state of the query phase: BFS
// frontiers, the path-expanded graph, G-representation paths, the
// neighbor accumulation buffer. The compiled Engine itself is
// immutable, so one scratch per in-flight query is the only mutable
// memory a query touches; scratches are recycled through Engine.pool,
// making the steady state of a long-lived server allocation-light
// (TestNeighborsAllocationBudget pins the Neighbors/Locate paths).
//
// Maps are cleared on release rather than reallocated, so their
// buckets survive between queries; value slices inside the adjacency
// maps are rebuilt per query (they are the per-query graph itself).
type scratch struct {
	loc1, loc2 Location
	out        []int64

	px pathExpansion

	// The path-expanded graph (Reachable, Distance) and the search
	// state over it.
	wadj  map[nodeKey][]arc[nodeKey]
	seen  map[nodeKey]bool
	queue []nodeKey
	sr    search[nodeKey]

	// NFA product (RPQ.Matches).
	padj   map[pk][]pk
	pseen  map[pk]bool
	pqueue []pk
}

// pk is a node of the path-expanded graph paired with an NFA state.
type pk struct {
	n nodeKey
	q int
}

func newScratch() *scratch {
	return &scratch{
		px: pathExpansion{
			instances: map[string]instance{},
			onPath:    map[string]map[hypergraph.EdgeID]bool{},
		},
		wadj:  map[nodeKey][]arc[nodeKey]{},
		seen:  map[nodeKey]bool{},
		sr:    search[nodeKey]{dist: map[nodeKey]int64{}},
		padj:  map[pk][]pk{},
		pseen: map[pk]bool{},
	}
}

// getScratch takes a scratch from the pool (or makes one). Callers
// must release with putScratch on every path; the scratch must not be
// touched after release.
func (e *Engine) getScratch() *scratch {
	if s, ok := e.pool.Get().(*scratch); ok {
		return s
	}
	return newScratch()
}

// putScratch clears the scratch's per-query state and returns it to
// the pool. Clearing happens here, on release, so pooled scratches
// hold no references into finished queries (the instance-key strings
// and adjacency slices become collectable immediately).
func (e *Engine) putScratch(s *scratch) {
	s.out = s.out[:0]
	s.queue = s.queue[:0]
	s.pqueue = s.pqueue[:0]
	clear(s.px.instances)
	clear(s.px.onPath)
	clear(s.wadj)
	clear(s.seen)
	clear(s.sr.dist)
	s.sr.heap = s.sr.heap[:0]
	clear(s.padj)
	clear(s.pseen)
	e.pool.Put(s)
}
