package query

import (
	"context"
	"fmt"
	"math"

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

// AddTransition adds q --label--> p. It panics if q or p is not a
// state.
func (a *NFA) AddTransition(q int, label hypergraph.Label, p int) {
	if q < 0 || q >= a.States || p < 0 || p >= a.States {
		panic(fmt.Sprintf("query: bad NFA transition q=%d p=%d for n=%d", q, p, a.States))
	}
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
// skeletons over (ext × states)²: the length of a shortest path inside
// val(A) from external node i in state q to external node j in state
// q', finite exactly when one exists. This extends the paper's Thm.-6
// skeletons to the product with an NFA — the "regular path queries"
// extension named in the paper's conclusion as future work — and is
// the same fold that builds the engine's own skeletons, whose
// automaton has one state.
//
// Like the Engine it is built from, a prepared RPQ is immutable: any
// number of goroutines may call Matches on one shared RPQ (per-call
// state lives in the engine's scratch pool). The automaton is compiled
// at preparation, so mutating the NFA afterwards does not change the
// RPQ.
type RPQ struct {
	e   *Engine
	aut automaton
	// skel[ruleIdx(A)] — flat product skeletons, as Engine.skel.
	skel [][]int64
}

// NewRPQ prepares a regular path query evaluator for Q NFA states:
// one Dijkstra from each of the rank·Q external product nodes of every
// right-hand side, over that right-hand side's product with the NFA,
// so O(|G|·rank·Q²·log(|G|·Q)) for bounded rank and label fan-out.
func (e *Engine) NewRPQ(nfa *NFA) *RPQ {
	r, _ := e.NewRPQContext(context.Background(), nfa)
	return r
}

// NewRPQContext is NewRPQ with cooperative cancellation: the product
// skeleton precomputation polls ctx between rules and at Dijkstra
// extractions.
func (e *Engine) NewRPQContext(ctx context.Context, nfa *NFA) (*RPQ, error) {
	r := &RPQ{e: e, aut: compileNFA(nfa, e.g.Terminals)}
	tk := ticker{ctx: ctx}
	skel, err := e.skeletons(&tk, "query: rpq skeletons", &r.aut)
	if err != nil {
		return nil, err
	}
	r.skel = skel
	return r, nil
}

// Matches reports whether some path from derived node u to derived
// node v spells a word the automaton accepts. Like Distance, it glues
// the right-hand sides along both G-representations (product
// skeletons standing in for unexpanded subtrees) and searches their
// product with the NFA together with S′ in product space, read in
// place from the start graph. It runs one way, asks no reachability
// question first and takes no condensation bound, so a star automaton
// over every label answers Reachable's question independently of both
// the condensation and Reachable's two-way search.
func (r *RPQ) Matches(u, v int64) (bool, error) {
	return r.MatchesContext(context.Background(), u, v)
}

// MatchesContext is Matches with cooperative cancellation: ctx is
// polled at product-Dijkstra extractions. Per-call state lives in the
// engine's pooled scratch, so concurrent callers never share mutable
// memory. The empty path matches when u = v and the start state
// accepts.
func (r *RPQ) MatchesContext(ctx context.Context, u, v int64) (bool, error) {
	e := r.e
	s := e.getScratch()
	defer e.putScratch(s)
	src, dst, err := e.expand(s, &r.aut, r.skel, u, v)
	if err != nil {
		return false, err
	}
	tk := ticker{ctx: ctx}
	w := newStartWalk(e, &r.aut, r.skel, 0, math.MaxInt32)
	d, err := s.pg.dijkstra(&tk, "query: rpq match", src, dst, r.aut.accept, &w)
	s.pg.clear()
	return err == nil && d < maxDist, err
}
