package query

import (
	"context"

	"graphrepair/internal/govern"
)

// frontierCheckStride bounds how many frontier expansions (DFS pops,
// Dijkstra extractions, neighbor emissions) may pass between two
// context polls. Query frontiers are tiny per step, so the stride is
// larger than the derivation one to keep the checks invisible in
// benchmarks.
const frontierCheckStride = 256

// ticker amortizes context polling over frontierCheckStride steps.
// The zero Context means "never canceled" (used by the non-Context
// entry points, which skip the polls entirely).
type ticker struct {
	ctx context.Context
	n   int
}

func (t *ticker) check(op string) error {
	if t.ctx == nil {
		return nil
	}
	if t.n++; t.n%frontierCheckStride != 0 {
		return nil
	}
	return govern.Checkpoint(t.ctx, op)
}
