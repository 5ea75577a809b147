package grammar

import (
	"fmt"
	"sort"
	"strings"

	"graphrepair/internal/hypergraph"
)

// RuleStats summarizes one rule for reporting.
type RuleStats struct {
	Label        hypergraph.Label
	Rank         int
	Nodes, Edges int
	Refs         int   // references across start graph and rules
	DerivedNodes int64 // nodes one instance derives
	DerivedEdges int64 // terminal edges one instance derives
}

// Stats returns per-rule statistics sorted by label — the data behind
// `grepair -stats` and useful when inspecting what the compressor
// found.
func (g *Grammar) Stats() []RuleStats {
	refs := g.RefCounts()
	nodeCounts, edgeCounts := g.derivedCounts()
	out := make([]RuleStats, 0, g.NumRules())
	for _, nt := range g.Nonterminals() {
		rhs := g.Rule(nt)
		out = append(out, RuleStats{
			Label:        nt,
			Rank:         rhs.Rank(),
			Nodes:        rhs.NumNodes(),
			Edges:        rhs.NumEdges(),
			Refs:         refs[nt],
			DerivedNodes: nodeCounts[nt],
			DerivedEdges: edgeCounts[nt],
		})
	}
	return out
}

// RankHistogram returns rule counts per rank.
func (g *Grammar) RankHistogram() map[int]int {
	h := map[int]int{}
	for _, r := range g.rules {
		if r != nil {
			h[r.Rank()]++
		}
	}
	return h
}

// Summary renders a human-readable multi-line description of the
// grammar: sizes, height, rank histogram, and the most-referenced
// rules.
func (g *Grammar) Summary() string {
	var b strings.Builder
	nodes, edges := g.DerivedSize()
	fmt.Fprintf(&b, "grammar: %d rules, |G| = %d, height %d\n", g.NumRules(), g.Size(), g.Height())
	fmt.Fprintf(&b, "start graph: %d nodes, %d edges\n", g.Start.NumNodes(), g.Start.NumEdges())
	fmt.Fprintf(&b, "derives: %d nodes, %d edges\n", nodes, edges)
	hist := g.RankHistogram()
	ranks := make([]int, 0, len(hist))
	for r := range hist {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		fmt.Fprintf(&b, "rank %d rules: %d\n", r, hist[r])
	}
	stats := g.Stats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Refs > stats[j].Refs })
	top := stats
	if len(top) > 5 {
		top = top[:5]
	}
	for _, s := range top {
		fmt.Fprintf(&b, "rule %d: rank %d, %d refs, derives %d nodes / %d edges\n",
			s.Label, s.Rank, s.Refs, s.DerivedNodes, s.DerivedEdges)
	}
	return b.String()
}
