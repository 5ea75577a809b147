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

	"graphrepair/internal/buf"
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
// right-hand side references) in a fresh slice, so a caller that needs
// both computes the order once.
func (g *Grammar) BottomUpOrder() ([]hypergraph.Label, error) {
	for id := range g.Start.EdgesSeq() {
		if err := g.checkEdge(g.Start, id); err != nil {
			return nil, fmt.Errorf("grammar: start: %w", err)
		}
	}
	var w walk
	if err := g.bottomUpInto(&w); err != nil {
		return nil, err
	}
	return w.order, nil
}

// checkEdge validates edge id of h: its label is known and its rank
// is the label's.
func (g *Grammar) checkEdge(h *hypergraph.Graph, id hypergraph.EdgeID) error {
	lab, rank := h.Label(id), len(h.Att(id))
	want := 2
	if !g.IsTerminal(lab) {
		r := g.Rule(lab)
		if r == nil {
			return fmt.Errorf("edge %d has unknown label %d", id, lab)
		}
		want = r.Rank()
	}
	if rank != want {
		return fmt.Errorf("edge %d labeled %d has rank %d, want %d", id, lab, rank, want)
	}
	return nil
}

// walk is the scratch of bottomUpInto, the package's one ≤NT walker.
// Prune keeps one warm in its scratch; every other caller uses a fresh
// one, so the read-only passes stay safe for concurrent use.
type walk struct {
	order  []hypergraph.Label  // bottom-up ≤NT order
	state  []uint8             // per rule: DFS state
	cursor []hypergraph.EdgeID // per rule: next edge to scan
	stack  []int32             // DFS stack of rule indices
}

// bottomUpInto fills w.order with all nonterminals in bottom-up ≤NT
// order: a depth-first traversal from every rule in ascending label
// order, right-hand-side edges in ascending ID order, run with an
// explicit stack and per-rule edge cursors, so it never recurses over
// the rule DAG and allocates nothing once w's buffers are warm. Every
// rule is validated (see checkEdge) when the traversal first enters
// it; an invalid rule or a cyclic ≤NT is an error.
func (g *Grammar) bottomUpInto(w *walk) error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	nr := len(g.rules)
	w.state = buf.GrowClear(w.state, nr)
	w.cursor = buf.GrowClear(w.cursor, nr)
	// A rule is on the stack at most once, so nr bounds both.
	w.order = slices.Grow(w.order[:0], nr)
	w.stack = slices.Grow(w.stack[:0], nr)
	enter := func(i int) error {
		r := g.rules[i]
		if r == nil {
			return fmt.Errorf("grammar: nonterminal %d has no rule", int(g.Terminals)+1+i)
		}
		for id := range r.EdgesSeq() {
			if err := g.checkEdge(r, id); err != nil {
				return fmt.Errorf("grammar: rule %d: %w", int(g.Terminals)+1+i, err)
			}
		}
		w.state[i] = visiting
		w.stack = append(w.stack, int32(i))
		return nil
	}
	for root := range nr {
		if w.state[root] != unvisited {
			continue
		}
		if err := enter(root); err != nil {
			return err
		}
		for len(w.stack) > 0 {
			top := len(w.stack) - 1
			i := w.stack[top]
			r := g.rules[i]
			id := g.nextNT(r, w.cursor[i])
			if id == r.MaxEdgeID() {
				w.stack = w.stack[:top]
				w.state[i] = done
				w.order = append(w.order, g.Terminals+1+hypergraph.Label(i))
				continue
			}
			w.cursor[i] = id + 1
			switch j := g.ruleIndex(r.Label(id)); w.state[j] {
			case visiting:
				return fmt.Errorf("grammar: cyclic nonterminal reference at %d", r.Label(id))
			case unvisited:
				if err := enter(j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// nextNT returns the first live nonterminal edge of h with ID at least
// from, or h.MaxEdgeID() if there is none.
func (g *Grammar) nextNT(h *hypergraph.Graph, from hypergraph.EdgeID) hypergraph.EdgeID {
	for ; from < h.MaxEdgeID(); from++ {
		if h.HasEdge(from) && !g.IsTerminal(h.Label(from)) {
			return from
		}
	}
	return from
}

// Height returns height(G), the height of the ≤NT relation: 0 if the
// start graph has no nonterminal edges, else 1 + the longest chain of
// nested nonterminals. The grammar must be valid.
func (g *Grammar) Height() int {
	order, err := g.BottomUpOrder()
	if err != nil {
		panic(err)
	}
	// depth[i] is the length of the longest chain of nested
	// nonterminals from rule i, itself included.
	depth := make([]int, len(g.rules))
	h := func(r *hypergraph.Graph) int {
		d := 0
		for id := range r.EdgesSeq() {
			if lab := r.Label(id); !g.IsTerminal(lab) {
				d = max(d, depth[g.ruleIndex(lab)])
			}
		}
		return d
	}
	for _, l := range order {
		depth[g.ruleIndex(l)] = 1 + h(g.Rule(l))
	}
	return h(g.Start)
}

// countRefs adds ref(A) for every nonterminal to the flat, rule-indexed
// ref: the number of A-labeled edges in the start graph and all
// right-hand sides.
func (g *Grammar) countRefs(ref []int32) {
	for i := -1; i < len(g.rules); i++ {
		h := g.Start
		if i >= 0 {
			h = g.rules[i]
		}
		for id := range h.EdgesSeq() {
			if lab := h.Label(id); !g.IsTerminal(lab) {
				ref[g.ruleIndex(lab)]++
			}
		}
	}
}

// CompareNTEdges is the canonical order of the nonterminal edges of a
// graph h: by label, then attachment sequence, ties broken by edge ID.
// SortedNTEdges sorts by it, and the query engine binary-searches the
// start graph's sorted edges with it.
func CompareNTEdges(h *hypergraph.Graph, a, b hypergraph.EdgeID) int {
	if c := cmp.Compare(h.Label(a), h.Label(b)); c != 0 {
		return c
	}
	if c := slices.Compare(h.Att(a), h.Att(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// SortedNTEdges returns the nonterminal edges of h in CompareNTEdges
// order. This is the derivation order used for the start graph so
// that encoder and decoder (which rebuilds the start graph from
// matrices, losing insertion order) agree on val(G), and the order in
// which the query engine lays out the derived-ID blocks of the start
// graph's edges.
//
// The sort runs over pointer-free keys: the label and the first three
// attachment nodes are packed into two words (IDs are positive
// int32s, and the edges of one label share its rule's rank, so padding
// short attachments with 0 keeps the order). Only keys that tie on
// those words read the graph, through CompareNTEdges itself.
func (g *Grammar) SortedNTEdges(h *hypergraph.Graph) []hypergraph.EdgeID {
	type key struct {
		hi, lo uint64 // label·att[0], att[1]·att[2]
		id     hypergraph.EdgeID
	}
	// Size the keys exactly, so the sort allocates a fixed number of
	// times whatever the size of h.
	nk := 0
	for id := range h.EdgesSeq() {
		if !g.IsTerminal(h.Label(id)) {
			nk++
		}
	}
	keys := make([]key, 0, nk)
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
		keys = append(keys, key{hi: uint64(lab)<<32 | a[0], lo: a[1]<<32 | a[2], id: id})
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return CompareNTEdges(h, a.id, b.id)
	})
	nts := make([]hypergraph.EdgeID, len(keys))
	for i, k := range keys {
		nts[i] = k.id
	}
	return nts
}
