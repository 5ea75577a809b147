package query

import (
	"context"
	"fmt"

	"graphrepair/internal/govern"
)

// The engine's one skeleton is the paper's Thm.-6 skeleton in the
// min-plus semiring: entry (i, j) is the length of a shortest directed
// path from external node i to external node j inside val(A), or
// maxDist if none exists, so reachability is a finite entry.
// Shortest-path distance is a "compatible" function in the sense of
// Sec. V (Courcelle–Mosbah evaluations), so the skeletons come out of
// the engine's one bottom-up fold.

// Unreachable is returned by Distance when no directed path exists.
const Unreachable = int64(-1)

// maxDist is the "no path" entry of a skeleton. Finite lengths
// saturate one below it (addDist), so "finite" stays exact even when a
// grammar derives paths longer than int64 can count.
const maxDist = int64(1) << 62

// addDist adds two finite lengths, saturating at maxDist-1.
func addDist(a, b int64) int64 {
	return min(a+b, maxDist-1)
}

// Distance returns the length of a shortest directed path from derived
// node u to derived node v in val(G), or Unreachable. Two start nodes
// that the condensation of S′ (Reachable) says are unreachable cost
// only that check. Otherwise a Dijkstra runs from both ends over the
// path-expanded graph of the two G-representations (min-plus skeletons
// summarizing unexpanded subtrees) and S′, which it reads in place
// from the start graph as it settles start nodes; start nodes the
// condensation rules out are not expanded. Reachable answers every
// other pair with this same search. A shortest path too long to count
// below 2^62-1 is reported as a *govern.LimitError (errors.Is(err,
// govern.ErrLimit)).
func (e *Engine) Distance(u, v int64) (int64, error) {
	return e.DistanceContext(context.Background(), u, v)
}

// DistanceContext is Distance with cooperative cancellation: ctx is
// polled at the condensation DFS's steps and at Dijkstra extractions.
func (e *Engine) DistanceContext(ctx context.Context, u, v int64) (int64, error) {
	const op = "query: distance"
	if u == v {
		return 0, e.checkNode(u)
	}
	s := e.getScratch()
	defer e.putScratch(s)
	tk := ticker{ctx: ctx}
	if e.startPair(u, v) {
		if ok, err := e.reach(s, &tk, op, u, v); err != nil || !ok {
			return Unreachable, err
		}
	}
	result, err := e.pathDist(s, &tk, op, u, v)
	switch {
	case err != nil:
		return 0, err
	case result == maxDist:
		result = Unreachable
	case result == maxDist-1:
		return 0, fmt.Errorf("query: distance %d→%d: %w", u, v,
			&govern.LimitError{Resource: "path length", Demanded: result, Allowed: maxDist - 2})
	}
	return result, nil
}
