package graphrepair

import (
	"context"
	"fmt"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/govern"
	"graphrepair/internal/query"
)

// Resource governance, re-exported from the govern package. SL-HR
// grammars are exponentially succinct — a ≤1KB encoding can derive
// billions of edges — so the Context entry points below accept Limits
// and reject decompression bombs analytically (from rule sizes, in
// O(|rules|), before materializing anything).
type (
	// Limits bounds the resources an operation may consume; the zero
	// value imposes none.
	Limits = govern.Limits
	// LimitError is the typed error behind ErrLimit.
	LimitError = govern.LimitError
	// CanceledError is the typed error behind ErrCanceled; it also
	// unwraps to the original context error.
	CanceledError = govern.CanceledError
)

// The error taxonomy of every facade function; match with errors.Is.
var (
	// ErrLimit reports that an operation exceeded a resource limit.
	ErrLimit = govern.ErrLimit
	// ErrCorrupt reports malformed input bytes.
	ErrCorrupt = govern.ErrCorrupt
	// ErrCanceled reports context cancellation or deadline expiry.
	ErrCanceled = govern.ErrCanceled
)

// backstop is the facade's panic boundary: no input, however corrupt
// or hostile, may crash the caller. Internal invariant violations
// (and, under -tags faultinject, simulated allocation failures on
// paths with no error return) surface here and are converted into
// errors classified under the govern taxonomy.
func backstop(op string, err *error) {
	if r := recover(); r != nil {
		e, ok := r.(error)
		if !ok {
			e = fmt.Errorf("%v", r)
		}
		*err = govern.Corrupt(fmt.Errorf("graphrepair: %s: internal panic: %w", op, e))
	}
}

// CompressContext is Compress with cooperative cancellation: ctx is
// polled at digram-replacement round boundaries, and a canceled run
// returns a *CanceledError (matching both ErrCanceled and the context
// error) instead of partial results. Compression allocates strictly
// less than its input, so Limits plays no role on this side.
func CompressContext(ctx context.Context, g *Graph, terminals Label, opts Options) (res *Result, err error) {
	defer backstop("compress", &err)
	return core.CompressContext(ctx, g, terminals, opts)
}

// DecodeContext is Decode under resource governance: lim.MaxAllocBytes
// bounds the estimated bytes the decoder may allocate (charged from
// the input's claimed counts before each table grows), and ctx is
// polled between rules and start-graph sections. A sealed archive is
// verified (every chunk CRC and the exact length) before the decoder
// sees a byte. Malformed input, a failed seal check included, yields
// an error matching ErrCorrupt.
func DecodeContext(ctx context.Context, buf []byte, lim Limits) (g *Grammar, err error) {
	defer backstop("decode", &err)
	return encoding.DecodeContext(ctx, buf, lim)
}

// DecompressContext is Decompress under resource governance. It
// reads sealed and plain archives as DecodeContext does. The derived
// size of the decoded grammar is computed analytically, in
// O(|rules|), before materialization: a decompression bomb — a tiny
// encoding whose val(G) exceeds lim.MaxNodes or lim.MaxEdges — is
// rejected with an error matching ErrLimit in microseconds, having
// allocated nothing beyond the grammar itself.
func DecompressContext(ctx context.Context, buf []byte, lim Limits) (out *Graph, err error) {
	defer backstop("decompress", &err)
	g, err := encoding.DecodeContext(ctx, buf, lim)
	if err != nil {
		return nil, err
	}
	return g.DeriveContext(ctx, lim)
}

// NewEngineContext is NewEngine with cooperative cancellation: the
// engine's bottom-up passes poll ctx between rules. Pass a per-query
// deadline to the engine's *Context query methods (ReachableContext,
// NeighborsContext, DistanceContext, NewRPQContext, MatchesContext)
// to bound individual queries.
//
// Construction builds every query layer (skeletons, aggregates), so
// no query runs a bottom-up pass. The built engine is immutable and
// safe for unlimited concurrent readers — compile once, share across
// goroutines.
func NewEngineContext(ctx context.Context, g *Grammar) (e *Engine, err error) {
	defer backstop("new engine", &err)
	return query.NewContext(ctx, g)
}
