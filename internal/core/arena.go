package core

import (
	"math/bits"

	"graphrepair/internal/hypergraph"
)

// arenaBase is log2 of an arena's first segment size (64 entries).
const arenaBase = 6

// arena is the append-only pool behind every per-stage chain of the
// compressor: entries are addressed by int32 index and stored in
// segments of 64, 128, 256, … entries, so segment k holds indexes
// [64·(2^k−1), 64·(2^(k+1)−1)). Growth adds one segment and never
// copies an existing one, so an arena allocates less than twice its
// high-water size (plus 64 entries) in total, where an append-grown
// slice allocates about five times it (1.25× growth) and copies each
// step. reset keeps every segment: refilling to the previous
// high-water mark allocates nothing (DESIGN.md §5.6). The pointer at
// returns stays valid across pushes. at and push sit in the
// replacement loop's innermost code and must stay within the
// compiler's inlining budget (`go build -gcflags=-m ./internal/core`
// lists both as inlinable).
type arena[T any] struct {
	segs [][]T
	n    int32
}

// at returns entry i, which must have been pushed since the last
// reset.
func (a *arena[T]) at(i int32) *T {
	u := uint32(i) + 1<<arenaBase
	k := bits.Len32(u) - 1
	return &a.segs[k-arenaBase][u-1<<k]
}

// push appends v and returns its index.
func (a *arena[T]) push(v T) int32 {
	i := a.n
	u := uint32(i) + 1<<arenaBase
	k := bits.Len32(u) - 1
	if k-arenaBase == len(a.segs) {
		a.addSegment()
	}
	a.segs[k-arenaBase][u-1<<k] = v
	a.n++
	return i
}

// addSegment appends the next, twice as large, segment.
func (a *arena[T]) addSegment() {
	a.segs = append(a.segs, make([]T, 1<<(arenaBase+len(a.segs))))
}

// reset empties the arena, keeping every segment.
func (a *arena[T]) reset() { a.n = 0 }

// attKey identifies a rank-2 edge exactly by its label and ordered
// attachment. Using the full tuple as a map key (instead of the 64-bit
// FNV digest the compressor trusted before PR 3) makes the
// duplicate-edge veto collision-free: two distinct (label, attachment)
// pairs can never be conflated, so a legal replacement is never
// mis-vetoed (DESIGN.md §8).
type attKey struct {
	label    hypergraph.Label
	src, dst hypergraph.NodeID
}

// edgeInterner maps each distinct rank-2 (label, attachment) to a
// dense ID and counts the alive edges per ID. The compressor stores
// the interned ID per edge, so removing an edge decrements its count
// without recomputing (or hashing) the key — the per-replacement FNV
// hashing of the pre-PR-3 edgeSet is gone entirely. Only rank-2 edges
// are interned: the duplicate veto exists because rank-2 edges are
// encoded as adjacency matrices (which cannot represent parallel
// edges, DESIGN.md §5.4); hyperedges of other ranks live in incidence
// matrices where parallel edges are fine.
type edgeInterner struct {
	ids    map[attKey]int32
	counts []int32 // alive edges per interned ID
}

// reset empties the interner for a graph of the given number of
// edges, whose rank-2 edges' IDs fill counts exactly. The first call
// allocates at that size; later calls clear the map and truncate
// counts in place, keeping what they grew to.
func (t *edgeInterner) reset(edges int) {
	if t.ids == nil {
		t.ids = make(map[attKey]int32, edges)
	} else {
		clear(t.ids)
	}
	if cap(t.counts) < edges {
		t.counts = make([]int32, 0, edges)
	}
	t.counts = t.counts[:0]
}

// intern returns the dense ID of (label, src→dst), allocating the next
// ID on first sight. Interned IDs are stable for the life of the
// compressor.
func (t *edgeInterner) intern(label hypergraph.Label, src, dst hypergraph.NodeID) int32 {
	k := attKey{label: label, src: src, dst: dst}
	id, ok := t.ids[k]
	if !ok {
		id = int32(len(t.counts))
		t.counts = append(t.counts, 0)
		t.ids[k] = id
	}
	return id
}

// noEntry is the sentinel chain link / per-edge slot for "none".
const noEntry int32 = -1

// occEntry is one link of an edge's occurrence chain: the occurrence
// the edge joined and the hash of its digram key (the used-set marker
// guaranteeing non-overlapping occurrence lists, Sec. III-C1).
type occEntry struct {
	h    uint64 // digram key hash (used-set marker)
	oi   int32  // occPool index
	next int32  // next entry of the same edge, or noEntry
}

// edgeOccs holds the per-edge occurrence lists and used-key sets of a
// stage in one shared arena: entries of all edges live in a single
// pool, chained per edge in insertion order via head/tail slots. The
// per-edge first-append allocations of the PR-2 layout (markUsed ~43%
// and addOcc ~8% of objects on rdf-types-ru) are gone; the pool's
// segments are allocated as it first grows and kept across stages
// (DESIGN.md §5.6). Iteration order is identical to the old
// slice-of-slices layout, which the replacement loop's determinism
// depends on.
type edgeOccs struct {
	pool arena[occEntry]
	head []int32 // per edge: first chain entry, or noEntry
	tail []int32 // per edge: last chain entry, or noEntry
}

// reset prepares the arena for a stage over edges 0..n-1, keeping the
// pool's segments. The per-edge slots are allocated once, at the
// working graph's edge capacity edgeCap (or earlier, by a compressor
// that reserves them for every graph it will run on), so grow never
// reallocates them while the graph stays inside its reservation.
func (s *edgeOccs) reset(n, edgeCap int) {
	s.pool.reset()
	s.head = fillNeg(s.head, n, edgeCap)
	s.tail = fillNeg(s.tail, n, edgeCap)
}

// grow extends the per-edge slots to n edges (after AddEdge).
func (s *edgeOccs) grow(n int) {
	s.head = growNeg(s.head, n)
	s.tail = growNeg(s.tail, n)
}

// add appends (h, oi) to edge e's chain.
func (s *edgeOccs) add(e hypergraph.EdgeID, h uint64, oi int32) {
	i := s.pool.push(occEntry{h: h, oi: oi, next: noEntry})
	if t := s.tail[e]; t >= 0 {
		s.pool.at(t).next = i
	} else {
		s.head[e] = i
	}
	s.tail[e] = i
}

// keyUsed reports whether edge e already joined an occurrence of the
// digram hashed h. Chains are tiny (one entry per digram the edge
// joined), so the linear scan beats any set.
func (s *edgeOccs) keyUsed(e hypergraph.EdgeID, h uint64) bool {
	for i := s.head[e]; i >= 0; {
		en := s.pool.at(i)
		if en.h == h {
			return true
		}
		i = en.next
	}
	return false
}

// clear drops edge e's chain (entries stay in the pool until the next
// stage reset; e is about to be removed from the graph).
func (s *edgeOccs) clear(e hypergraph.EdgeID) {
	s.head[e], s.tail[e] = noEntry, noEntry
}

// occLink is one link of a digram's occurrence chain in the shared
// digramOccs arena: an occPool index and the next link of the same
// digram.
type occLink struct {
	oi   int32
	next int32
}

// digramOccs holds every digram's occurrence list in one shared
// per-stage arena, chained per digram in append order via the
// occHead/occTail slots on digramInfo — the same fusion edgeOccs
// applied to the per-edge lists in PR 3. The per-digram `occs []int32`
// slices this replaces were ~16% of surviving objects on dblp60-70
// (tryCount grew one per digram per stage). replaceDigram's two-pass
// iteration (collect live, then replace) walks the chain in exact
// append order, which the replacement loop's determinism depends on
// (DESIGN.md §10).
type digramOccs struct {
	pool arena[occLink]
}

// reset empties the arena for a fresh stage, keeping its segments.
func (s *digramOccs) reset() {
	s.pool.reset()
}

// add appends occurrence oi to digram d's chain.
func (s *digramOccs) add(d *digramInfo, oi int32) {
	i := s.pool.push(occLink{oi: oi, next: noEntry})
	if d.occTail >= 0 {
		s.pool.at(d.occTail).next = i
	} else {
		d.occHead = i
	}
	d.occTail = i
}

// fillNeg returns s resized to n entries, all noEntry. When s cannot
// hold capacity entries it is reallocated once with capacity
// max(n, capacity), so growNeg up to capacity never reallocates.
func fillNeg(s []int32, n, capacity int) []int32 {
	if cap(s) < max(n, capacity) {
		s = make([]int32, 0, max(n, capacity))
	}
	s = s[:n]
	for i := range s {
		s[i] = noEntry
	}
	return s
}

// growNeg extends s to n entries, filling new slots with noEntry.
// Inside s's capacity (sized by fillNeg to the working graph's edge
// capacity) it never allocates.
func growNeg(s []int32, n int) []int32 {
	for len(s) < n {
		s = append(s, noEntry)
	}
	return s
}
