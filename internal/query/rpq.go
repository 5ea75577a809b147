package query

import (
	"context"
	"fmt"

	"graphrepair/internal/hypergraph"
)

// NFA is a nondeterministic finite automaton over edge labels, the
// query alphabet of regular path queries. States are 0..States-1;
// Start is the initial state.
type NFA struct {
	States int
	Start  int
	Accept []bool
	trans  map[int]map[hypergraph.Label][]int
}

// NewNFA returns an NFA with n states, none accepting, no transitions.
func NewNFA(n, start int) *NFA {
	if n < 1 || start < 0 || start >= n {
		panic(fmt.Sprintf("query: bad NFA shape n=%d start=%d", n, start))
	}
	return &NFA{States: n, Start: start, Accept: make([]bool, n),
		trans: map[int]map[hypergraph.Label][]int{}}
}

// AddTransition adds q --label--> p.
func (a *NFA) AddTransition(q int, label hypergraph.Label, p int) {
	if a.trans[q] == nil {
		a.trans[q] = map[hypergraph.Label][]int{}
	}
	a.trans[q][label] = append(a.trans[q][label], p)
}

// SetAccept marks state q accepting.
func (a *NFA) SetAccept(q int) { a.Accept[q] = true }

// Next returns the states reachable from q on one label.
func (a *NFA) Next(q int, label hypergraph.Label) []int {
	return a.trans[q][label]
}

// PathNFA builds an automaton accepting exactly the label sequence
// given (a fixed-length path query).
func PathNFA(labels ...hypergraph.Label) *NFA {
	a := NewNFA(len(labels)+1, 0)
	for i, l := range labels {
		a.AddTransition(i, l, i+1)
	}
	a.SetAccept(len(labels))
	return a
}

// StarNFA builds an automaton accepting any sequence (including the
// empty one) over the given labels: l1|l2|...)*.
func StarNFA(labels ...hypergraph.Label) *NFA {
	a := NewNFA(1, 0)
	for _, l := range labels {
		a.AddTransition(0, l, 0)
	}
	a.SetAccept(0)
	return a
}

// RPQ is a regular path query evaluator prepared for one grammar and
// one automaton. Preparation computes, bottom-up, the product
// skeletons sk(A) ⊆ (ext × states)²: whether external node j can be
// reached in state q' from external node i in state q inside val(A).
// This extends the paper's Thm.-6 skeletons to the product with an
// NFA — the "regular path queries" extension named in the paper's
// conclusion as future work.
//
// Like the Engine it is built from, a prepared RPQ is immutable: any
// number of goroutines may call Matches on one shared RPQ (per-call
// state lives in the engine's scratch pool). The automaton must not
// be mutated after preparation.
type RPQ struct {
	e   *Engine
	nfa *NFA
	// skel[ruleIdx(A)][i*Q+q][j*Q+q'] — product reachability among
	// externals.
	skel [][][]bool
}

// NewRPQ prepares a regular path query evaluator in O(|G|·Q²) for Q
// NFA states (bounded rank).
func (e *Engine) NewRPQ(nfa *NFA) *RPQ {
	r, _ := e.NewRPQContext(context.Background(), nfa)
	return r
}

// NewRPQContext is NewRPQ with cooperative cancellation: the product
// skeleton precomputation polls ctx between rules, bounding the
// O(|G|·Q²) preparation under a deadline.
func (e *Engine) NewRPQContext(ctx context.Context, nfa *NFA) (*RPQ, error) {
	r := &RPQ{e: e, nfa: nfa}
	Q := nfa.States
	tk := ticker{ctx: ctx}
	skel, err := fold(e, &tk, "query: rpq skeletons", func(h *hypergraph.Graph, skel [][][]bool) ([][]bool, error) {
		ext := h.Ext()
		if len(ext) == 0 {
			return nil, nil // the start graph has no external nodes
		}
		adj := r.productAdjacency(h, skel)
		sk := make([][]bool, len(ext)*Q)
		for i, src := range ext {
			for q := 0; q < Q; q++ {
				row := make([]bool, len(ext)*Q)
				reach := bfsProduct(adj, prodNode{src, q})
				for j, dst := range ext {
					for p := 0; p < Q; p++ {
						if (i != j || q != p) && reach[prodNode{dst, p}] {
							row[j*Q+p] = true
						}
					}
				}
				sk[i*Q+q] = row
			}
		}
		return sk, nil
	})
	if err != nil {
		return nil, err
	}
	r.skel = skel
	return r, nil
}

type prodNode struct {
	v hypergraph.NodeID
	q int
}

// productAdjacency builds the product of a right-hand side with the
// NFA: terminal edges advance the automaton, nested nonterminal edges
// contribute their product skeletons (from skel, still under
// construction during the fold).
func (r *RPQ) productAdjacency(h *hypergraph.Graph, skel [][][]bool) map[prodNode][]prodNode {
	Q := r.nfa.States
	adj := map[prodNode][]prodNode{}
	for id := range h.EdgesSeq() {
		ed := h.Edge(id)
		att := h.Att(id)
		if r.e.g.IsTerminal(ed.Label) {
			for q := 0; q < Q; q++ {
				for _, p := range r.nfa.Next(q, ed.Label) {
					a := prodNode{att[0], q}
					adj[a] = append(adj[a], prodNode{att[1], p})
				}
			}
			continue
		}
		sk := skel[r.e.ruleIdx(ed.Label)]
		for iq := range sk {
			i, q := iq/Q, iq%Q
			for jp, ok := range sk[iq] {
				if !ok {
					continue
				}
				j, p := jp/Q, jp%Q
				a := prodNode{att[i], q}
				adj[a] = append(adj[a], prodNode{att[j], p})
			}
		}
	}
	return adj
}

func bfsProduct(adj map[prodNode][]prodNode, src prodNode) map[prodNode]bool {
	reach := map[prodNode]bool{src: true}
	queue := []prodNode{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if !reach[y] {
				reach[y] = true
				queue = append(queue, y)
			}
		}
	}
	return reach
}

// Matches reports whether some path from derived node u to derived
// node v spells a word the automaton accepts. Like Reachable, it glues
// the right-hand sides along both G-representations (product
// skeletons standing in for unexpanded subtrees) and runs one BFS in
// the product, O(|G|·Q²) overall.
func (r *RPQ) Matches(u, v int64) (bool, error) {
	return r.MatchesContext(context.Background(), u, v)
}

// MatchesContext is Matches with cooperative cancellation: ctx is
// polled at product-BFS frontier expansions. Per-call state lives in
// the engine's pooled scratch, so concurrent callers never share
// mutable memory.
func (r *RPQ) MatchesContext(ctx context.Context, u, v int64) (bool, error) {
	e := r.e
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.locateInto(&s.loc1, u); err != nil {
		return false, err
	}
	if err := e.locateInto(&s.loc2, v); err != nil {
		return false, err
	}
	px := e.expandPathsInto(s, &s.loc1, &s.loc2)
	Q := r.nfa.States

	adj := s.padj
	px.forEachEdge(func(instKey string, h *hypergraph.Graph, id hypergraph.EdgeID) {
		ed := h.Edge(id)
		att := h.Att(id)
		if e.g.IsTerminal(ed.Label) {
			a := px.canonical(instKey, att[0])
			b := px.canonical(instKey, att[1])
			for q := 0; q < Q; q++ {
				for _, p := range r.nfa.Next(q, ed.Label) {
					adj[pk{a, q}] = append(adj[pk{a, q}], pk{b, p})
				}
			}
			return
		}
		sk := r.skel[e.ruleIdx(ed.Label)]
		for iq := range sk {
			i, q := iq/Q, iq%Q
			for jp, ok := range sk[iq] {
				if !ok {
					continue
				}
				j, p := jp/Q, jp%Q
				a := px.canonical(instKey, att[i])
				b := px.canonical(instKey, att[j])
				adj[pk{a, q}] = append(adj[pk{a, q}], pk{b, p})
			}
		}
	})

	src := pk{px.canonical(px.keyOf(&s.loc1), s.loc1.Node), r.nfa.Start}
	dstNode := px.canonical(px.keyOf(&s.loc2), s.loc2.Node)
	if src.n == dstNode && r.nfa.Accept[r.nfa.Start] {
		return true, nil // empty path
	}
	seen := s.pseen
	seen[src] = true
	s.pqueue = append(s.pqueue[:0], src)
	tk := ticker{ctx: ctx}
	for head := 0; head < len(s.pqueue); head++ {
		if err := tk.check("query: rpq match"); err != nil {
			return false, err
		}
		x := s.pqueue[head]
		if x.n == dstNode && r.nfa.Accept[x.q] {
			return true, nil
		}
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				s.pqueue = append(s.pqueue, y)
			}
		}
	}
	return false, nil
}
