// Package grammar implements straight-line hyperedge replacement
// grammars (SL-HR grammars, Sec. II of "Compressing Graphs by
// Grammars"): a ranked nonterminal alphabet, exactly one rule per
// nonterminal, an acyclic reference relation ≤NT, and a start graph.
// Such a grammar derives exactly one hypergraph up to isomorphism;
// Derive produces the canonical copy val(G) with the deterministic
// node numbering the paper defines at the end of Sec. II.
//
// The package also implements the pruning phase of gRePair
// (Sec. III-A3), which inlines rules that do not contribute to
// compression according to the contribution measure con(A).
package grammar

import (
	"cmp"
	"fmt"
	"slices"

	"graphrepair/internal/hypergraph"
)

// Grammar is a straight-line HR grammar. Terminal labels are
// 1..Terminals and always have rank 2 (the paper's input graphs are
// simple directed edge-labeled graphs); nonterminal labels are
// allocated sequentially above Terminals and have the rank of their
// rule's external-node sequence.
type Grammar struct {
	// Terminals is the number of terminal labels; labels 1..Terminals
	// are terminal.
	Terminals hypergraph.Label
	// Start is the start graph S. It may contain terminal and
	// nonterminal edges and has no external nodes.
	Start *hypergraph.Graph
	// rules[i] is the right-hand side of nonterminal Terminals+1+i.
	rules []*hypergraph.Graph
	// scratch backs Prune and Inline with reusable buffers (see
	// gramScratch); lazily allocated, not safe for concurrent use.
	scratch *gramScratch
}

// New returns a grammar with the given terminal alphabet size and
// start graph, and no rules.
func New(terminals hypergraph.Label, start *hypergraph.Graph) *Grammar {
	return &Grammar{Terminals: terminals, Start: start}
}

// IsTerminal reports whether l is a terminal label.
func (g *Grammar) IsTerminal(l hypergraph.Label) bool {
	return l >= 1 && l <= g.Terminals
}

// NumRules returns the number of nonterminals (= rules).
func (g *Grammar) NumRules() int { return len(g.rules) }

// Nonterminals returns all nonterminal labels in allocation order.
func (g *Grammar) Nonterminals() []hypergraph.Label {
	out := make([]hypergraph.Label, len(g.rules))
	for i := range g.rules {
		out[i] = g.Terminals + 1 + hypergraph.Label(i)
	}
	return out
}

// AddRule allocates a fresh nonterminal with right-hand side rhs and
// returns its label. rhs must have at least one external node.
func (g *Grammar) AddRule(rhs *hypergraph.Graph) hypergraph.Label {
	if rhs.Rank() < 1 {
		panic("grammar: rule must have at least one external node")
	}
	g.rules = append(g.rules, rhs)
	return g.Terminals + hypergraph.Label(len(g.rules))
}

// Rule returns the right-hand side of nonterminal l, or nil if l is
// not a nonterminal of this grammar.
func (g *Grammar) Rule(l hypergraph.Label) *hypergraph.Graph {
	i := int(l - g.Terminals - 1)
	if i < 0 || i >= len(g.rules) {
		return nil
	}
	return g.rules[i]
}

// SetRule replaces the right-hand side of nonterminal l. The new rhs
// must have the same rank; used by the encoder's canonicalization.
func (g *Grammar) SetRule(l hypergraph.Label, rhs *hypergraph.Graph) {
	i := int(l - g.Terminals - 1)
	if i < 0 || i >= len(g.rules) {
		panic(fmt.Sprintf("grammar: SetRule: unknown nonterminal %d", l))
	}
	if g.rules[i] != nil && g.rules[i].Rank() != rhs.Rank() {
		panic(fmt.Sprintf("grammar: SetRule: rank change %d → %d", g.rules[i].Rank(), rhs.Rank()))
	}
	g.rules[i] = rhs
}

// RankOf returns the rank of a label: 2 for terminals, |ext(rhs)| for
// nonterminals.
func (g *Grammar) RankOf(l hypergraph.Label) int {
	if g.IsTerminal(l) {
		return 2
	}
	if r := g.Rule(l); r != nil {
		return r.Rank()
	}
	panic(fmt.Sprintf("grammar: unknown label %d", l))
}

// Size returns |G|: the total size of the start graph plus all
// right-hand sides (paper Sec. II, start graph included as in the
// worked example of Fig. 6/7).
func (g *Grammar) Size() int {
	s := g.Start.TotalSize()
	for _, r := range g.rules {
		if r != nil {
			s += r.TotalSize()
		}
	}
	return s
}

// EdgeSize returns |G|E (edge sizes of start graph and rules).
func (g *Grammar) EdgeSize() int {
	s := g.Start.EdgeSize()
	for _, r := range g.rules {
		if r != nil {
			s += r.EdgeSize()
		}
	}
	return s
}

// NodeSize returns |G|V (node counts of start graph and rules).
func (g *Grammar) NodeSize() int {
	s := g.Start.NumNodes()
	for _, r := range g.rules {
		if r != nil {
			s += r.NumNodes()
		}
	}
	return s
}

// Validate checks the SL-HR invariants: every rule exists, ranks of
// nonterminal edges match their rules, every edge label is known,
// attachment lengths match label ranks, and ≤NT is acyclic.
func (g *Grammar) Validate() error {
	_, err := g.BottomUpOrder()
	return err
}

// BottomUpOrder validates g like Validate and returns its nonterminals
// in bottom-up ≤NT order (every nonterminal after all nonterminals its
// right-hand side references), so a caller that needs both computes
// the order once.
func (g *Grammar) BottomUpOrder() ([]hypergraph.Label, error) {
	check := func(h *hypergraph.Graph, what string) error {
		for id := range h.EdgesSeq() {
			lab, rank := h.Label(id), len(h.Att(id))
			if lab == 0 {
				return fmt.Errorf("grammar: %s: edge %d has reserved label 0", what, id)
			}
			want := 0
			if g.IsTerminal(lab) {
				want = 2
			} else {
				r := g.Rule(lab)
				if r == nil {
					return fmt.Errorf("grammar: %s: edge %d has unknown label %d", what, id, lab)
				}
				want = r.Rank()
			}
			if rank != want {
				return fmt.Errorf("grammar: %s: edge %d labeled %d has rank %d, want %d",
					what, id, lab, rank, want)
			}
		}
		return nil
	}
	if err := check(g.Start, "start"); err != nil {
		return nil, err
	}
	for i, r := range g.rules {
		if r == nil {
			return nil, fmt.Errorf("grammar: nonterminal %d has no rule", int(g.Terminals)+1+i)
		}
		if err := check(r, fmt.Sprintf("rule %d", int(g.Terminals)+1+i)); err != nil {
			return nil, err
		}
	}
	return g.bottomUpOrder()
}

// bottomUpOrder returns the nonterminals in a bottom-up ≤NT order
// (every nonterminal appears after all nonterminals referenced by its
// right-hand side), or an error if ≤NT is cyclic.
func (g *Grammar) bottomUpOrder() ([]hypergraph.Label, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[hypergraph.Label]int, len(g.rules))
	var out []hypergraph.Label
	var visit func(l hypergraph.Label) error
	visit = func(l hypergraph.Label) error {
		switch state[l] {
		case visiting:
			return fmt.Errorf("grammar: cyclic nonterminal reference at %d", l)
		case done:
			return nil
		}
		state[l] = visiting
		r := g.Rule(l)
		if r == nil {
			return fmt.Errorf("grammar: unknown nonterminal %d", l)
		}
		for id := range r.EdgesSeq() {
			if lab := r.Label(id); !g.IsTerminal(lab) {
				if err := visit(lab); err != nil {
					return err
				}
			}
		}
		state[l] = done
		out = append(out, l)
		return nil
	}
	for _, l := range g.Nonterminals() {
		if err := visit(l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Height returns height(G), the height of the ≤NT relation: 0 if the
// start graph has no nonterminal edges, else 1 + the longest chain of
// nested nonterminals.
func (g *Grammar) Height() int {
	depth := make(map[hypergraph.Label]int, len(g.rules))
	order, err := g.bottomUpOrder()
	if err != nil {
		panic(err)
	}
	for _, l := range order {
		d := 1
		for id := range g.Rule(l).EdgesSeq() {
			if lab := g.Rule(l).Label(id); !g.IsTerminal(lab) {
				if depth[lab]+1 > d {
					d = depth[lab] + 1
				}
			}
		}
		depth[l] = d
	}
	h := 0
	for id := range g.Start.EdgesSeq() {
		if lab := g.Start.Label(id); !g.IsTerminal(lab) {
			if depth[lab] > h {
				h = depth[lab]
			}
		}
	}
	return h
}

// RefCounts returns ref(A) for every nonterminal: the number of
// A-labeled edges in the start graph and all right-hand sides.
func (g *Grammar) RefCounts() map[hypergraph.Label]int {
	ref := make(map[hypergraph.Label]int, len(g.rules))
	count := func(h *hypergraph.Graph) {
		for id := range h.EdgesSeq() {
			if lab := h.Label(id); !g.IsTerminal(lab) {
				ref[lab]++
			}
		}
	}
	count(g.Start)
	for _, r := range g.rules {
		if r != nil {
			count(r)
		}
	}
	return ref
}

// SortedNTEdges returns the nonterminal edges of h sorted canonically
// by (label, attachment sequence), ties broken by edge ID. This is the
// derivation order used for the start graph so that encoder and
// decoder (which rebuilds the start graph from matrices, losing
// insertion order) agree on val(G), and the order in which the query
// engine lays out the derived-ID blocks of the start graph's edges.
//
// The sort runs over pointer-free keys and never reads the graph: the
// label and the first three attachment nodes are packed into two
// words (IDs are positive int32s, and the edges of one label share its
// rule's rank, so padding short attachments with 0 keeps the order),
// and any further attachment nodes are copied into one flat slice.
func (g *Grammar) SortedNTEdges(h *hypergraph.Graph) []hypergraph.EdgeID {
	type key struct {
		hi, lo uint64 // label·att[0], att[1]·att[2]
		id     hypergraph.EdgeID
		off    int32 // att[3:] starts at tail[off]
	}
	keys := make([]key, 0, h.NumEdges())
	var tail []hypergraph.NodeID
	for id := range h.EdgesSeq() {
		lab := h.Label(id)
		if g.IsTerminal(lab) {
			continue
		}
		var a [3]uint64
		att := h.Att(id)
		for i := range min(len(att), 3) {
			a[i] = uint64(att[i])
		}
		keys = append(keys, key{hi: uint64(lab)<<32 | a[0], lo: a[1]<<32 | a[2], id: id, off: int32(len(tail))})
		if len(att) > 3 {
			tail = append(tail, att[3:]...)
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		if n := int32(g.Rule(hypergraph.Label(a.hi>>32)).Rank()) - 3; n > 0 {
			if c := slices.Compare(tail[a.off:a.off+n], tail[b.off:b.off+n]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.id, b.id)
	})
	nts := make([]hypergraph.EdgeID, len(keys))
	for i, k := range keys {
		nts[i] = k.id
	}
	return nts
}
