// Package core implements gRePair, the grammar-based graph compressor
// of "Compressing Graphs by Grammars" (Maneth & Peternek, ICDE 2016,
// Sec. III). It repeatedly replaces the most frequent digram — a pair
// of connected (hyper)edges — by a fresh nonterminal edge, producing a
// straight-line hyperedge replacement grammar, and finally prunes
// rules that do not contribute to compression.
//
// This is the paper's primary contribution; every design deviation
// from the paper's description is documented in DESIGN.md §5. The
// hot-path data layout (packed digram keys, arena-backed occurrence
// and digram pools, reused canonical-form scratch) is documented in
// DESIGN.md §5.6.
package core

import (
	"graphrepair/internal/hypergraph"
)

// MaxSupportedRank bounds Options.MaxRank: the packed digram key
// stores the attachment-overlap pattern in a fixed-size array of
// MaxSupportedRank entries and the external flags of up to
// 2*MaxSupportedRank local nodes in one 32-bit word. The paper never
// uses maxRank above 8 (Table IV), so the bound is not a practical
// restriction.
const MaxSupportedRank = 16

// digramKey canonically identifies a digram (Def. 2): the labels and
// ranks of the two edges, the attachment-overlap pattern, and the
// external-node flags. Occurrences with equal keys are occurrences of
// the same digram, and the key fully determines the digram hypergraph
// (the right-hand side of the rule introduced for it).
//
// The key is a fixed-size comparable struct so it can be used as a map
// key without allocating (DESIGN.md §5.6): pat is zero-padded beyond
// rb and ext keeps bit i for local node i, which makes struct equality
// coincide with equality of the byte-string key used before PR 1.
type digramKey struct {
	la, lb hypergraph.Label
	ra, rb uint8 // ranks of the two edges
	n      uint8 // number of local nodes
	pat    [MaxSupportedRank]uint8
	ext    uint32
}

// keyLess reproduces the byte-lexicographic order of the pre-PR-1
// string key for two keys with equal labels (the only case the
// canonical-orientation tie break compares keys): rank of the first
// edge, rank of the second, overlap pattern, then external flags in
// local-node order.
func keyLess(x, y *digramKey) bool {
	if x.ra != y.ra {
		return x.ra < y.ra
	}
	if x.rb != y.rb {
		return x.rb < y.rb
	}
	for i := 0; i < int(x.rb); i++ {
		if x.pat[i] != y.pat[i] {
			return x.pat[i] < y.pat[i]
		}
	}
	if x.ext != y.ext {
		// First differing local index decides; bit i is local i, so the
		// lowest set bit of the xor is the first difference.
		d := x.ext ^ y.ext
		return x.ext&(d&-d) == 0
	}
	return false
}

// canonOcc is the canonical form of one occurrence {e1, e2}: the
// oriented edge pair, the local node table, and the digram key. The
// slices are scratch owned by the compressor and reused across calls
// (DESIGN.md §5.6); a canonOcc is only valid until the next
// build/derive into the same struct.
type canonOcc struct {
	a, b   hypergraph.EdgeID
	locals []hypergraph.NodeID // local index → graph node
	extLoc []int               // ascending local indices of external nodes
	shared []hypergraph.NodeID // nodes attached to both edges
	key    digramKey
}

// rank returns the digram's rank (number of external nodes).
func (c *canonOcc) rank() int { return len(c.extLoc) }

// appendAttachment appends the graph nodes a replacing nonterminal
// edge attaches to, in external order.
func (c *canonOcc) appendAttachment(dst []hypergraph.NodeID) []hypergraph.NodeID {
	for _, l := range c.extLoc {
		dst = append(dst, c.locals[l])
	}
	return dst
}

// appendRemoval appends the graph nodes internal to the occurrence
// (to be deleted on replacement).
func (c *canonOcc) appendRemoval(dst []hypergraph.NodeID) []hypergraph.NodeID {
	for i, v := range c.locals {
		if c.key.ext&(1<<uint(i)) == 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// localIndex returns v's position in the local node table, or -1.
// Tables hold at most 2*MaxSupportedRank entries, so a linear scan
// beats any map.
func localIndex(locals []hypergraph.NodeID, v hypergraph.NodeID) int {
	for i, u := range locals {
		if u == v {
			return i
		}
	}
	return -1
}

// buildOrientedInto computes the canonical form for the ordered pair
// (a, b) into co, reusing co's scratch slices. Externality follows
// Def. 3(3): a node of the occurrence is external iff it is incident
// with an edge other than a and b — or marked external on the graph
// itself, which the partition-sharded path uses to protect boundary
// nodes referenced by cut edges outside the shard (DESIGN.md §12;
// sequential start graphs have no external nodes, so the extra check
// never fires there).
func buildOrientedInto(g *hypergraph.Graph, a, b hypergraph.EdgeID, co *canonOcc) {
	attA, attB := g.Att(a), g.Att(b)
	co.a, co.b = a, b
	co.shared = co.shared[:0]
	co.extLoc = co.extLoc[:0]
	// Attachment nodes of one edge are pairwise distinct, so all of
	// a's go in directly.
	locals := append(co.locals[:0], attA...)
	k := &co.key
	*k = digramKey{la: g.Label(a), lb: g.Label(b), ra: uint8(len(attA)), rb: uint8(len(attB))}
	for i, v := range attB {
		j := localIndex(locals, v)
		if j >= 0 && j < len(attA) {
			co.shared = append(co.shared, v)
		}
		if j < 0 {
			j = len(locals)
			locals = append(locals, v)
		}
		k.pat[i] = uint8(j)
	}
	co.locals = locals
	k.n = uint8(len(locals))
	for i, v := range locals {
		// v is attached to a, to b, or to both; it is external iff it
		// has more alive incident edges than that.
		inPair := 0
		if g.AttPos(a, v) >= 0 {
			inPair++
		}
		if g.AttPos(b, v) >= 0 {
			inPair++
		}
		if g.Degree(v) > inPair || g.IsExternal(v) {
			k.ext |= 1 << uint(i)
			co.extLoc = append(co.extLoc, i)
		}
	}
}

// deriveFlippedInto fills dst with the canonical form of the reversed
// orientation (src.b, src.a) without re-querying the graph for
// externality: both orientations see the same node set, so external
// flags carry over through the local-index permutation. This is the
// label-tie fast path — the pre-PR-1 code ran the full buildOriented
// (including per-node degree queries) twice whenever labels tied.
func deriveFlippedInto(g *hypergraph.Graph, src, dst *canonOcc) {
	attA, attB := g.Att(src.a), g.Att(src.b)
	dst.a, dst.b = src.b, src.a
	dst.shared = dst.shared[:0]
	dst.extLoc = dst.extLoc[:0]
	locals := append(dst.locals[:0], attB...)
	k := &dst.key
	*k = digramKey{la: src.key.lb, lb: src.key.la, ra: src.key.rb, rb: src.key.ra}
	for i, v := range attA {
		j := localIndex(locals, v)
		if j >= 0 && j < len(attB) {
			dst.shared = append(dst.shared, v)
		}
		if j < 0 {
			j = len(locals)
			locals = append(locals, v)
		}
		k.pat[i] = uint8(j)
	}
	dst.locals = locals
	k.n = uint8(len(locals))
	for i, v := range locals {
		si := localIndex(src.locals, v)
		if src.key.ext&(1<<uint(si)) != 0 {
			k.ext |= 1 << uint(i)
			dst.extLoc = append(dst.extLoc, i)
		}
	}
}

// canonicalizeInto computes the canonical occurrence for an unordered
// edge pair into the caller-owned scratch structs co and tmp,
// returning whichever holds the canonical form: the edge with the
// smaller label goes first; on equal labels the orientation with the
// lexicographically smaller key wins, which makes the canonical form
// independent of the order the pair was discovered in.
func canonicalizeInto(g *hypergraph.Graph, e1, e2 hypergraph.EdgeID, co, tmp *canonOcc) *canonOcc {
	l1, l2 := g.Label(e1), g.Label(e2)
	switch {
	case l1 < l2:
		buildOrientedInto(g, e1, e2, co)
		return co
	case l2 < l1:
		buildOrientedInto(g, e2, e1, co)
		return co
	}
	// Labels tie. The key compares edge ranks right after the labels,
	// so when the ranks differ the orientation putting the
	// smaller-rank edge first wins without materializing the other.
	r1, r2 := len(g.Att(e1)), len(g.Att(e2))
	if r1 < r2 {
		buildOrientedInto(g, e1, e2, co)
		return co
	}
	if r2 < r1 {
		buildOrientedInto(g, e2, e1, co)
		return co
	}
	buildOrientedInto(g, e1, e2, co)
	deriveFlippedInto(g, co, tmp)
	if co.key != tmp.key {
		if keyLess(&co.key, &tmp.key) {
			return co
		}
		return tmp
	}
	// Equal keys: both orientations describe the same digram, but the
	// local node order (and hence the attachment order of the
	// replacing edge) may differ; break the tie on the local node
	// sequence so the canonical form does not depend on argument
	// order.
	for i := range co.locals {
		if co.locals[i] != tmp.locals[i] {
			if co.locals[i] < tmp.locals[i] {
				return co
			}
			return tmp
		}
	}
	return co
}

// ruleGraphBuilder materializes rule right-hand sides: the digram
// hypergraph of a canonical occurrence, with nodes 1..len(locals)
// standing for the local nodes, the two edges with their labels, and
// the external sequence in ascending local order (so external-node
// IDs are ascending, as the encoder requires). The occurrence's
// canonical form fixes every size up front (node count, the two edge
// ranks, the external count), so the graph is constructed through
// hypergraph.NewReserved at exact capacity and the mapped attachments
// and external sequence are staged in pooled buffers reused across all
// rules of a run — the per-rule `New`+`make`+`AddEdge`+`SetExt` growth
// churn this replaces was ~58% of the compressor's surviving objects
// on dblp60-70 (DESIGN.md §10). Only the rule graph's own backing
// arrays (which outlive the compressor inside the grammar) are
// allocated, a fixed handful per rule, pinned by
// TestRuleBuilderAllocs.
type ruleGraphBuilder struct {
	mapped []hypergraph.NodeID // pooled mapped-attachment buffer
	ext    []hypergraph.NodeID // pooled external-sequence buffer
}

// build materializes the rule graph for canonical occurrence c of g.
func (b *ruleGraphBuilder) build(g *hypergraph.Graph, c *canonOcc) *hypergraph.Graph {
	ra, rb := len(g.Att(c.a)), len(g.Att(c.b))
	rhs := hypergraph.NewReserved(len(c.locals), 2, ra+rb, len(c.extLoc))
	for _, e := range [2]hypergraph.EdgeID{c.a, c.b} {
		mapped := b.mapped[:0]
		for _, v := range g.Att(e) {
			i := localIndex(c.locals, v)
			if i < 0 {
				panic("core: ruleGraphBuilder: node not local")
			}
			mapped = append(mapped, hypergraph.NodeID(i+1))
		}
		b.mapped = mapped
		rhs.AddEdge(g.Label(e), mapped...)
	}
	ext := b.ext[:0]
	for _, l := range c.extLoc {
		ext = append(ext, hypergraph.NodeID(l+1))
	}
	b.ext = ext
	rhs.SetExt(ext...)
	return rhs
}

// effLabel packs (label, attachment position) into one comparable
// value. Two edges around a node form candidate pairs per ordered
// group pair of effLabels; for rank-2 edges this specializes to
// (label, direction), the grouping Sec. III-C1 describes.
type effLabel uint64

func makeEffLabel(label hypergraph.Label, pos int) effLabel {
	return effLabel(uint64(uint32(label))<<8 | uint64(uint8(pos)))
}
