package order

import (
	"fmt"
	"math/rand"
	"slices"

	"graphrepair/internal/buf"
	"graphrepair/internal/hypergraph"
)

// Refiner computes node orders with state that persists across calls:
// the signature arena, partition buffers and the Result itself are
// reused, so a Refiner held for the lifetime of a compression run
// makes per-stage order computation allocation-free once the buffers
// reach their high-water marks (DESIGN.md §7).
//
// Beyond buffer reuse, refinement is incremental across calls: the
// sort permutation of each FP/FP0 round is seeded from the previous
// round — and, across stages, from the previous stage's final order —
// so the per-round signature sort runs over an almost-sorted slice
// instead of a random one. This is a pure cost optimization: class
// assignment depends only on the multiset of signature values (ties
// between equal signatures collapse into one class no matter how the
// sort ordered them), so the computed order is bit-identical to a
// from-scratch computation (pinned by TestGoldenGrammars end to end
// and by FuzzOrder's warm-vs-scratch comparison).
//
// A Refiner is not safe for concurrent use. The *Result returned by
// Compute is owned by the Refiner and overwritten by its next Compute
// call; callers that need the order to outlive the next call must
// copy Seq and Pos.
type Refiner struct {
	res   Result
	nodes []hypergraph.NodeID

	// FP/FP0 refinement state (§7): colors and the round scratch are
	// indexed by NodeID, the signature arena by node index via start.
	color, next []int64
	start       []int32
	arena       []int64
	perm        []int32
	nodeIdx     []int32
	labels      []hypergraph.Label

	// Traversal scratch (BFS/DFS).
	visited []bool
	nbs     []hypergraph.NodeID
	work    []hypergraph.NodeID
}

// NewRefiner returns an empty Refiner. Buffers are grown lazily on
// first use.
func NewRefiner() *Refiner { return &Refiner{} }

// Reset forgets the previous order, keeping every buffer, so the next
// Compute seeds its refinement from scratch. A Refiner moving on to an
// unrelated graph calls it: node IDs of the old graph mean nothing in
// the new one. The result would be the same without it (any seed
// gives the same order), but the reset keeps a stale order from
// steering the sort.
func (r *Refiner) Reset() { r.res.Seq = r.res.Seq[:0] }

// Compute returns the requested order of g's alive nodes. The seed is
// used only by Random. The result aliases Refiner-owned storage; see
// the type comment.
func (r *Refiner) Compute(g *hypergraph.Graph, kind Kind, seed int64) *Result {
	switch kind {
	case Natural:
		r.res.Seq = g.AppendNodes(r.res.Seq[:0])
		r.finishTotal(g)
	case BFS:
		r.traverse(g, false)
		r.finishTotal(g)
	case DFS:
		r.traverse(g, true)
		r.finishTotal(g)
	case Random:
		seq := g.AppendNodes(r.res.Seq[:0])
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		r.res.Seq = seq
		r.finishTotal(g)
	case FP0:
		r.refine(g, 1)
	case FP:
		r.refine(g, -1)
	default:
		panic(fmt.Sprintf("order: unknown kind %d", int(kind)))
	}
	return &r.res
}

// finishTotal completes a total order: Pos is rebuilt from Seq and the
// class count is the node count.
func (r *Refiner) finishTotal(g *hypergraph.Graph) {
	r.fillPos(g)
	r.res.Classes = len(r.res.Seq)
}

// fillPos rebuilds res.Pos (NodeID → position, -1 for dead) from
// res.Seq.
func (r *Refiner) fillPos(g *hypergraph.Graph) {
	r.res.Pos = buf.Grow(r.res.Pos, int(g.MaxNodeID())+1)
	pos := r.res.Pos
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range r.res.Seq {
		pos[v] = int32(i)
	}
}

// traverse produces a BFS (dfs=false) or DFS (dfs=true) order into
// res.Seq, using the smallest unvisited node ID as the root of each
// component and visiting neighbors in ascending ID order. All scratch
// (visited bitmap, work stack/queue, neighbor buffer) is reused across
// calls.
func (r *Refiner) traverse(g *hypergraph.Graph, dfs bool) {
	r.visited = buf.Grow(r.visited, int(g.MaxNodeID())+1)
	visited := r.visited
	clear(visited)
	r.nodes = g.AppendNodes(r.nodes[:0])
	seq := r.res.Seq[:0]
	work := r.work[:0]
	nbs := r.nbs
	for _, root := range r.nodes {
		if visited[root] {
			continue
		}
		work = append(work[:0], root)
		visited[root] = true
		if dfs {
			for len(work) > 0 {
				u := work[len(work)-1]
				work = work[:len(work)-1]
				seq = append(seq, u)
				nbs = g.AppendNeighbors(nbs[:0], u)
				// Push in reverse so the smallest neighbor pops first.
				for i := len(nbs) - 1; i >= 0; i-- {
					if !visited[nbs[i]] {
						visited[nbs[i]] = true
						work = append(work, nbs[i])
					}
				}
			}
		} else {
			for head := 0; head < len(work); head++ {
				u := work[head]
				seq = append(seq, u)
				nbs = g.AppendNeighbors(nbs[:0], u)
				for _, w := range nbs {
					if !visited[w] {
						visited[w] = true
						work = append(work, w)
					}
				}
			}
		}
	}
	r.res.Seq = seq
	r.work = work
	r.nbs = nbs
}

// refine runs the FP fixpoint of Sec. III-B1: c0(v) = d(v); each round
// maps v to the tuple (c(v), sorted incident-edge signatures) and
// relabels tuples by their lexicographic rank. maxRounds < 0 iterates
// to the fixpoint; maxRounds = 1 yields FP0 (the plain degree order).
//
// The paper defines the computation for undirected unlabeled graphs
// and notes it "can be straightforwardly extended to directed labeled
// graphs"; our signatures include the edge label and the positions of
// both endpoints in the attachment sequence, which specializes to
// (label, direction) for rank-2 edges and covers hyperedges.
//
// All signatures live in one flat arena refilled in place each round
// (their sizes depend only on the static graph), and every buffer is
// reused across calls, so per-stage refinement allocates nothing once
// the arena reaches its high-water mark. Each round's sort is seeded
// with the previous round's permutation (see the type comment for why
// that cannot change the result): after round one, the primary sort
// key s[0] is the previous round's rank, so the slice arrives almost
// sorted and the pdqsort run detection makes the round near-linear.
func (r *Refiner) refine(g *hypergraph.Graph, maxRounds int) {
	r.nodes = g.AppendNodes(r.nodes[:0])
	nodes := r.nodes
	n := len(nodes)
	maxID := int(g.MaxNodeID())
	r.color = buf.Grow(r.color, maxID+1)
	r.next = buf.Grow(r.next, maxID+1)
	color, next := r.color, r.next

	// Round 0: colors are degrees. Dead-node slots hold garbage, which
	// is harmless: only colors of alive nodes are ever read.
	for _, v := range nodes {
		color[v] = int64(g.Degree(v))
	}
	classes := r.countClasses(nodes, color)
	rounds := 1

	// Node i's signature is arena[start[i]:start[i+1]], laid out as
	// [own color, sorted packed neighbor tuples...].
	r.start = buf.Grow(r.start, n+1)
	start := r.start
	total := 0
	maxLab := hypergraph.Label(0)
	for i, v := range nodes {
		start[i] = int32(total)
		total++
		for id := range g.IncidentSeq(v) {
			total += len(g.Att(id)) - 1
			maxLab = max(maxLab, g.Label(id))
		}
	}
	start[n] = int32(total)
	r.rankLabels(g, maxLab)
	labels := r.labels
	r.arena = buf.Grow(r.arena, total)
	arena := r.arena
	sig := func(i int32) []int64 { return arena[start[i]:start[i+1]] }
	r.seedPerm(g)
	perm := r.perm

	finalClasses := classes
	for n > 0 && (maxRounds < 0 || rounds < maxRounds) {
		for i, v := range nodes {
			s := sig(int32(i))
			s[0] = color[v]
			w := 1
			for id := range g.IncidentSeq(v) {
				att := g.Att(id)
				lab := int64(g.Label(id))
				if len(labels) > 0 {
					rank, _ := slices.BinarySearch(labels, g.Label(id))
					lab = int64(rank)
				}
				myPos := int64(g.AttPos(id, v))
				for otherPos, u := range att {
					if u == v {
						continue
					}
					// Pack (label, myPos, otherPos, color(u)). Colors are
					// class indices < n, so 32 bits suffice; positions
					// stay well below their 6 bits, and rankLabels keeps
					// lab inside its 20.
					s[w] = lab<<44 | myPos<<38 | int64(otherPos)<<32 | color[u]
					w++
				}
			}
			slices.Sort(s[1:])
		}
		slices.SortFunc(perm, func(a, b int32) int { return compareSig(sig(a), sig(b)) })
		cls := int64(0)
		for i, pi := range perm {
			if i > 0 && compareSig(sig(perm[i-1]), sig(pi)) != 0 {
				cls++
			}
			next[nodes[pi]] = cls
		}
		newClasses := int(cls) + 1
		copy(color, next)
		rounds++
		finalClasses = newClasses
		if newClasses == classes {
			break // fixpoint: refinement is monotone, equal count ⇒ stable
		}
		classes = newClasses
		if rounds > n+1 { // safety net; refinement terminates in ≤ n rounds
			break
		}
	}

	seq := append(r.res.Seq[:0], nodes...)
	slices.SortFunc(seq, func(a, b hypergraph.NodeID) int {
		if color[a] != color[b] {
			if color[a] < color[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	r.res.Seq = seq
	r.fillPos(g)
	r.res.Classes = finalClasses
}

// labelBits is the width of the label field in a packed neighbor
// tuple (refine).
const labelBits = 20

// rankLabels leaves r.labels empty when g's largest label maxLab fits
// the packed tuple's label field, so refine packs labels as they are.
// Otherwise a wider label would lose its high bits and pack equal to a
// smaller one, so r.labels becomes g's distinct labels in ascending
// order and refine packs each label's rank in it instead, which keeps
// labels apart while g has at most 2^20 distinct ones.
func (r *Refiner) rankLabels(g *hypergraph.Graph, maxLab hypergraph.Label) {
	r.labels = r.labels[:0]
	if maxLab < 1<<labelBits {
		return
	}
	for id := range g.EdgesSeq() {
		r.labels = append(r.labels, g.Label(id))
	}
	slices.Sort(r.labels)
	r.labels = slices.Compact(r.labels)
}

// seedPerm fills r.perm (length |nodes|) with node indices, seeded
// from the previous Compute's order when every currently alive node
// appears in it (the compressor only removes nodes between stages, so
// this is the steady case); identity otherwise. Any permutation is a
// correct starting point — the seed only moves the sort closer to its
// fixed output.
func (r *Refiner) seedPerm(g *hypergraph.Graph) {
	n := len(r.nodes)
	r.perm = buf.Grow(r.perm, n)
	perm := r.perm
	if prev := r.res.Seq; len(prev) >= n && n > 0 {
		r.nodeIdx = buf.Grow(r.nodeIdx, int(g.MaxNodeID())+1)
		idx := r.nodeIdx
		for i := range idx {
			idx[i] = -1
		}
		for i, v := range r.nodes {
			idx[v] = int32(i)
		}
		k := 0
		for _, v := range prev {
			if int(v) < len(idx) && idx[v] >= 0 {
				perm[k] = idx[v]
				k++
				idx[v] = -1 // each alive node seeds at most one slot
			}
		}
		if k == n {
			return
		}
	}
	for i := range perm {
		perm[i] = int32(i)
	}
}

// countClasses returns the number of distinct colors over nodes,
// using next[:len(nodes)] as sort scratch (next is fully rewritten by
// every refinement round, so clobbering it here is safe).
func (r *Refiner) countClasses(nodes []hypergraph.NodeID, color []int64) int {
	if len(nodes) == 0 {
		return 0
	}
	scratch := r.next[:len(nodes)]
	for i, v := range nodes {
		scratch[i] = color[v]
	}
	slices.Sort(scratch)
	c := 1
	for i := 1; i < len(scratch); i++ {
		if scratch[i] != scratch[i-1] {
			c++
		}
	}
	return c
}

// compareSig orders signatures lexicographically, shorter-is-smaller
// on a shared prefix (the order lessSig produced before the arena
// layout).
func compareSig(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
