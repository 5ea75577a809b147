package query

// scratch is all the per-call mutable state of the query phase: the
// two G-representations, the neighbor accumulation buffer and descent
// stack, the int-ID
// product graph a Reachable, Distance or Matches call lays out and
// searches (product.go), and the stamps and stack of Reachable's DFS
// over the condensation of S′ (analysis.go). The compiled Engine
// itself is immutable, so one scratch per in-flight query is the only
// mutable memory a query touches; scratches are recycled through
// Engine.pool, and every buffer keeps its capacity between queries,
// so the steady state of a long-lived server allocates nothing but
// results (TestQueryAllocs and TestNeighborsAllocationBudget pin
// this).
type scratch struct {
	loc1, loc2 Location
	out        []int64
	frames     []nbrFrame // Neighbors' explicit descent stack
	pg         product
	seen       []uint32 // per SCC: stamp of the last DFS that visited it
	stamp      uint32
	stack      []int32
}

// getScratch takes a scratch from the pool (or makes one). Callers
// must release with putScratch on every path; the scratch must not be
// touched after release.
func (e *Engine) getScratch() *scratch {
	if s, ok := e.pool.Get().(*scratch); ok {
		return s
	}
	return &scratch{}
}

// putScratch returns the scratch to the pool. Every query leaves its
// product clear (every head and dist entry unset), and the next user
// resets every other buffer it reads; the product's blocks still
// point at the grammar's graphs, which the engine keeps alive anyway.
func (e *Engine) putScratch(s *scratch) {
	e.pool.Put(s)
}
