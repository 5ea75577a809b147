package grammar

import (
	"slices"

	"graphrepair/internal/buf"
	"graphrepair/internal/hypergraph"
)

// gramScratch holds the reusable buffers behind Prune and Inline
// (DESIGN.md §7): reference counts and removal flags live in flat
// arrays indexed by rule index, the bottom-up order comes from the
// package's one explicit-stack walker (bottomUpInto), and Inline maps
// rule nodes through a flat NodeID table. Everything is grown lazily
// and reused across calls, so a second Prune on an already-pruned
// grammar — the steady state of long-lived grammars — allocates
// nothing (pinned by TestPruneAllocationBudget).
type gramScratch struct {
	ref     []int32             // per rule: reference count
	removed []bool              // per rule: inlined away in this Prune
	remap   []hypergraph.Label  // per rule: compacted label (0 = dropped)
	walk    walk                // bottom-up ≤NT order
	edgeBuf []hypergraph.EdgeID // l-edge snapshot per host
	hosts   [][]int32           // per rule: host indices referencing it (-1 = start)

	// Inline scratch.
	att     []hypergraph.NodeID // attachment copy of the inlined edge
	nodeMap []hypergraph.NodeID // rule NodeID → host NodeID
	mapped  []hypergraph.NodeID // per-edge mapped attachment
	added   []hypergraph.EdgeID // edge IDs copied into the host
}

// scr returns the grammar's scratch, allocating it on first use.
func (g *Grammar) scr() *gramScratch {
	if g.scratch == nil {
		g.scratch = &gramScratch{}
	}
	return g.scratch
}

// ruleIndex returns l's index into g.rules (negative or out of range
// for terminals and unknown labels).
func (g *Grammar) ruleIndex(l hypergraph.Label) int { return int(l - g.Terminals - 1) }

// HandleSize returns |handle(A)| for a nonterminal of the given rank
// (paper Sec. III-A3): the total size of the minimal graph holding one
// A-edge, i.e. its rank many nodes plus the edge-size measure of the
// edge (1 for rank <= 2, rank for larger hyperedges). With this value,
// |rhs(A)| − |handle(A)| is exactly the size change of deriving one
// A-edge: the edge and its attachment nodes are accounted against the
// full right-hand side whose external nodes merge with them. The
// paper's worked example (Fig. 6/7) pins this down: a rank-2 rule of
// size 5 referenced 4 times has con(A) = 4·(5−3)−5 = 3, matching the
// actual grammar-vs-graph size difference.
func HandleSize(rank int) int {
	edge := 1
	if rank > 2 {
		edge = rank
	}
	return rank + edge
}

// Contribution returns con(A) = ref(A)·(|rhs(A)| − |handle(A)|) −
// |rhs(A)| for nonterminal l, given its current reference count. A
// rule contributes to compression iff the result is positive.
func (g *Grammar) Contribution(l hypergraph.Label, ref int) int {
	rhs := g.Rule(l)
	size := rhs.TotalSize()
	return ref*(size-HandleSize(rhs.Rank())) - size
}

// Prune removes rules that do not contribute to compression
// (Sec. III-A3): first every nonterminal referenced exactly once is
// inlined (by definition it cannot contribute), then nonterminals are
// visited bottom-up in ≤NT order and inlined while con(A) <= 0.
// Removing a rule changes the sizes and reference counts of the rules
// that referenced it, so counts are maintained incrementally.
//
// Returns the number of rules removed. The grammar is compacted: the
// remaining nonterminals are renumbered densely (preserving relative
// order) so label space stays contiguous for the encoder.
func (g *Grammar) Prune() int {
	nr := len(g.rules)
	if nr == 0 {
		return 0
	}
	s := g.scr()
	s.removed = buf.GrowClear(s.removed, nr)
	s.ref = buf.GrowClear(s.ref, nr)
	// hosts is the reverse reference index: for every rule, which hosts
	// (start graph = -1, rule j = j) carry at least one edge with its
	// label. inlineRule visits only those hosts instead of scanning the
	// whole grammar — without the index each inline is O(|G|), which
	// turns Prune quadratic on grammars with thousands of rules.
	if cap(s.hosts) < nr {
		s.hosts = append(s.hosts[:cap(s.hosts)], make([][]int32, nr-cap(s.hosts))...)
	}
	s.hosts = s.hosts[:nr]
	for i := range s.hosts {
		s.hosts[i] = s.hosts[i][:0]
	}
	g.countRefs(s.ref)
	g.indexHosts(s, -1, g.Start)
	for j, r := range g.rules {
		g.indexHosts(s, int32(j), r)
	}

	removed := 0
	// Pass 1: rules referenced exactly once never contribute.
	// Iterate to a fixpoint: inlining can drop other counts to one.
	for {
		inlined := false
		for i := 0; i < nr; i++ {
			if !s.removed[i] && s.ref[i] == 1 {
				g.inlineRule(i)
				inlined = true
				removed++
			}
		}
		if !inlined {
			break
		}
	}

	// Pass 2: bottom-up ≤NT order, removing non-contributing rules.
	// The order is fixed before the loop, and still lists the rules
	// pass 1 removed; inlining only appends edges to rules later in it.
	if err := g.bottomUpInto(&s.walk); err != nil {
		panic(err)
	}
	for _, l := range s.walk.order {
		i := g.ruleIndex(l)
		if s.removed[i] {
			continue
		}
		if g.Contribution(l, int(s.ref[i])) <= 0 {
			g.inlineRule(i)
			removed++
		}
	}

	// Compact: renumber surviving nonterminals densely.
	if removed > 0 {
		g.compactLabels()
	}
	return removed
}

// indexHosts records host (start = -1, rule j = j) in the host list of
// every nonterminal h references. Consecutive duplicates are folded
// here; non-consecutive ones (and out-of-order appends from later
// incremental updates) are handled by the sort+dedupe in inlineRule.
func (g *Grammar) indexHosts(s *gramScratch, host int32, h *hypergraph.Graph) {
	for id := range h.EdgesSeq() {
		if lab := h.Label(id); !g.IsTerminal(lab) {
			i := g.ruleIndex(lab)
			if n := len(s.hosts[i]); n == 0 || s.hosts[i][n-1] != host {
				s.hosts[i] = append(s.hosts[i], host)
			}
		}
	}
}

// inlineRule replaces every edge labeled with rule i's nonterminal in
// the start graph and all live right-hand sides by rhs(i), updating
// reference counts, and marks the rule removed. Only the hosts the
// reverse index lists are visited, in the same order a full scan would
// use (start graph first, then rules ascending), so the output is
// unchanged from the pre-index implementation.
func (g *Grammar) inlineRule(i int) {
	s := g.scratch
	l := g.Terminals + 1 + hypergraph.Label(i)
	rhs := g.rules[i]
	hosts := s.hosts[i]
	slices.Sort(hosts)
	hosts = slices.Compact(hosts)
	s.hosts[i] = hosts
	for _, hj := range hosts {
		switch {
		case hj < 0:
			g.inlineRuleIn(g.Start, -1, l, rhs)
		case int(hj) != i && !s.removed[hj]:
			g.inlineRuleIn(g.rules[hj], hj, l, rhs)
		}
	}
	// References held by rhs(l) itself disappear with the rule.
	for rid := range rhs.EdgesSeq() {
		if lab := rhs.Label(rid); !g.IsTerminal(lab) {
			s.ref[g.ruleIndex(lab)]--
		}
	}
	s.removed[i] = true
	s.ref[i] = 0
}

// inlineRuleIn inlines every l-edge of host h. The l-edges are
// snapshotted up front: Inline mutates h, and no new l-edge can appear
// because ≤NT is acyclic (rhs(l) cannot reference l).
func (g *Grammar) inlineRuleIn(h *hypergraph.Graph, host int32, l hypergraph.Label, rhs *hypergraph.Graph) {
	s := g.scratch
	snap := s.edgeBuf[:0]
	for id := range h.EdgesSeq() {
		if h.Label(id) == l {
			snap = append(snap, id)
		}
	}
	s.edgeBuf = snap
	// Pre-size the host once from the aggregate totals: every inlined
	// copy adds the same internal-node/edge/attachment counts, so one
	// reservation up front makes the per-call Reserve inside Inline a
	// no-op (slices.Grow with sufficient capacity). Output bytes are
	// unchanged — reservations never affect IDs or iteration order.
	if n := len(snap); n > 0 {
		if internal := rhs.NumNodes() - rhs.Rank(); internal > 0 {
			h.ReserveNodes(n * internal)
		}
		attLen := 0
		for rid := range rhs.EdgesSeq() {
			attLen += len(rhs.Att(rid))
		}
		h.Reserve(n*rhs.NumEdges(), n*attLen)
	}
	for _, id := range snap {
		g.Inline(h, id)
		// The inlined copy adds one reference per nonterminal edge of
		// rhs(l) — and makes h a host of those rules; the l-edge itself
		// is gone.
		for rid := range rhs.EdgesSeq() {
			if lab := rhs.Label(rid); !g.IsTerminal(lab) {
				ri := g.ruleIndex(lab)
				s.ref[ri]++
				if n := len(s.hosts[ri]); n == 0 || s.hosts[ri][n-1] != host {
					s.hosts[ri] = append(s.hosts[ri], host)
				}
			}
		}
	}
}

// compactLabels drops removed rules and renumbers the survivors
// densely above Terminals, rewriting every edge label.
func (g *Grammar) compactLabels() {
	s := g.scratch
	s.remap = buf.GrowClear(s.remap, len(g.rules))
	kept := g.rules[:0]
	for i, r := range g.rules {
		if s.removed[i] {
			continue
		}
		s.remap[i] = g.Terminals + 1 + hypergraph.Label(len(kept))
		kept = append(kept, r)
	}
	relabel := func(l hypergraph.Label) hypergraph.Label {
		if g.IsTerminal(l) {
			return l
		}
		nl := s.remap[g.ruleIndex(l)]
		if nl == 0 {
			panic("grammar: compactLabels: dangling removed nonterminal")
		}
		return nl
	}
	g.Start.Relabel(relabel)
	for _, r := range kept {
		r.Relabel(relabel)
	}
	// Drop the tail so removed rule graphs become collectable.
	tail := g.rules[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	g.rules = kept
}
