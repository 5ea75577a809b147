// Package graphrepair is a Go implementation of gRePair, the
// grammar-based graph compressor of Maneth & Peternek, "Compressing
// Graphs by Grammars", ICDE 2016.
//
// gRePair generalizes the RePair compression scheme to directed,
// edge-labeled (hyper)graphs: it repeatedly replaces the most frequent
// digram — a pair of connected edges — by a fresh nonterminal edge,
// producing a straight-line hyperedge replacement (SL-HR) grammar that
// derives the input graph (up to isomorphism). The incompressible
// start graph is serialized with k²-trees, the rules with δ-codes.
// Encode writes archive format version 1; Decode also reads version 2,
// which older builds wrote with an identical payload.
// Queries such as (s,t)-reachability, in/out-neighborhoods, connected
// components and degree statistics run directly on the grammar,
// without decompression.
//
// Quick start:
//
//	g := graphrepair.NewGraph(4)
//	g.AddEdge(1, 1, 2) // label, source, target
//	g.AddEdge(2, 2, 3)
//	res, _ := graphrepair.Compress(g, 2, graphrepair.DefaultOptions())
//	buf, sizes, _ := graphrepair.Encode(res.Grammar)
//	back, _ := graphrepair.Decompress(buf)  // isomorphic to g
//	_ = sizes.TotalBytes()
//	eng, _ := graphrepair.NewEngine(res.Grammar)
//	ok, _ := eng.Reachable(1, 3) // on the compressed form
//	_, _ = back, ok
//
// The subpackages under internal implement the paper's substrates
// (hypergraphs, SL-HR grammars, node orders, k²-trees, bit codes), the
// baseline compressors it compares against, the synthetic analogs of
// its datasets, and the benchmark harness reproducing every table and
// figure of its evaluation (see DESIGN.md and EXPERIMENTS.md).
package graphrepair

import (
	"context"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/iso"
	"graphrepair/internal/order"
	"graphrepair/internal/query"
)

// Core graph types, re-exported from the hypergraph package.
type (
	// Graph is a mutable directed edge-labeled hypergraph; simple
	// graphs use rank-2 edges (attachment = source, target).
	Graph = hypergraph.Graph
	// NodeID identifies a node (1-based).
	NodeID = hypergraph.NodeID
	// EdgeID identifies an edge within a graph.
	EdgeID = hypergraph.EdgeID
	// Label identifies an edge label; terminal labels are 1..T.
	Label = hypergraph.Label
	// Triple is a directed labeled edge (source, target, label).
	Triple = hypergraph.Triple
	// ReachScratch is reusable BFS state for Graph.ReachableWith, for
	// harnesses issuing many reachability probes on the same graph.
	ReachScratch = hypergraph.ReachScratch
)

// Compression types, re-exported from the core and grammar packages.
type (
	// Options configure the gRePair compressor.
	Options = core.Options
	// Result is a compression result (grammar plus statistics).
	Result = core.Result
	// Stats reports compressor activity.
	Stats = core.Stats
	// Grammar is a straight-line hyperedge replacement grammar.
	Grammar = grammar.Grammar
	// Sizes breaks an encoded grammar down by section.
	Sizes = encoding.Sizes
	// Engine answers queries over a grammar without decompressing.
	Engine = query.Engine
	// Direction selects neighborhood query direction.
	Direction = query.Direction
	// NFA is an automaton over edge labels for regular path queries.
	NFA = query.NFA
	// RPQ evaluates a regular path query on the grammar.
	RPQ = query.RPQ
	// OrderKind selects the node order steering digram counting.
	OrderKind = order.Kind
)

// Node order kinds (paper Sec. III-B1).
const (
	OrderNatural = order.Natural
	OrderBFS     = order.BFS
	OrderDFS     = order.DFS
	OrderRandom  = order.Random
	OrderFP0     = order.FP0
	OrderFP      = order.FP
)

// Neighborhood directions.
const (
	Out  = query.Out
	In   = query.In
	Both = query.Both
)

// NewGraph returns a graph with nodes 1..n and no edges.
func NewGraph(n int) *Graph { return hypergraph.New(n) }

// FromTriples builds a simple graph with nodes 1..n from triples;
// self-loops and duplicates are skipped (count returned).
func FromTriples(n int, triples []Triple) (*Graph, int) {
	return hypergraph.FromTriples(n, triples)
}

// DefaultOptions returns the paper's recommended configuration:
// maxRank 4, FP node order, virtual-edge component connection.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compress runs gRePair on a simple directed graph whose edge labels
// are 1..terminals. The input is not modified. For cancellation, see
// CompressContext.
func Compress(g *Graph, terminals Label, opts Options) (*Result, error) {
	return CompressContext(context.Background(), g, terminals, opts)
}

// Encode serializes a grammar into the paper's binary format
// (k²-trees for the start graph, δ-coded rules).
func Encode(g *Grammar) (buf []byte, sz Sizes, err error) {
	defer backstop("encode", &err)
	return encoding.Encode(g)
}

// Decode parses a grammar from its binary encoding. For limits and
// cancellation on untrusted input, see DecodeContext.
func Decode(buf []byte) (*Grammar, error) {
	return DecodeContext(context.Background(), buf, Limits{})
}

// Decompress decodes a grammar and derives val(G), the canonical
// graph it represents (isomorphic to the compressed input). It
// imposes no limits: a decompression bomb will be materialized. For
// untrusted input use DecompressContext with Limits.
func Decompress(buf []byte) (*Graph, error) {
	return DecompressContext(context.Background(), buf, Limits{})
}

// NewEngine builds a query engine over a grammar; queries then run on
// the compressed representation. For cancellation, see
// NewEngineContext.
func NewEngine(g *Grammar) (*Engine, error) {
	return NewEngineContext(context.Background(), g)
}

// NewNFA returns an automaton with n states (none accepting) starting
// in state start, for use with Engine.NewRPQ.
func NewNFA(n, start int) *NFA { return query.NewNFA(n, start) }

// PathNFA builds an automaton accepting exactly the given label
// sequence.
func PathNFA(labels ...Label) *NFA { return query.PathNFA(labels...) }

// StarNFA builds an automaton accepting any sequence over the given
// labels.
func StarNFA(labels ...Label) *NFA { return query.StarNFA(labels...) }

// FPClasses returns |[≅FP]|, the number of equivalence classes of the
// paper's fixpoint node order — an indicator of compressibility
// (Fig. 11).
func FPClasses(g *Graph) int { return order.FPClasses(g) }

// Isomorphic reports whether two graphs are isomorphic as directed
// edge-labeled hypergraphs (exact test; exponential worst case, fast
// for the sizes typical in validation).
func Isomorphic(a, b *Graph) bool { return iso.Isomorphic(a, b) }
