package order

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"graphrepair/internal/buf"
	"graphrepair/internal/hypergraph"
)

// Refiner computes node orders with state that persists across calls:
// the neighbor table, the partition arrays, the signature scratch and
// the Result itself are reused, so a Refiner held for the lifetime of
// a compression run makes per-stage order computation allocation-free
// once the buffers reach their high-water marks (DESIGN.md §7).
//
// No order depends on the previous call. Pos keeps -1 in every slot
// but the previous order's, so a call clears only those; apart from
// listing the alive nodes, FP and FP0 cost time in the alive nodes
// and their incidences, not in the graph's largest node ID.
//
// A Refiner is not safe for concurrent use. The *Result returned by
// Compute is owned by the Refiner and overwritten by its next Compute
// call; callers that need the order to outlive the next call must
// copy Seq and Pos.
type Refiner struct {
	res Result

	// FP/FP0 state (§7). A node is named by its index in the list of
	// alive nodes, which Seq holds until the order is done.
	tstart  []int32 // node i's neighbor tuples are tab[tstart[i]:tstart[i+1]]
	tab     []tuple
	labels  []hypergraph.Label
	cls     []int32 // node → class
	perm    []int32 // nodes, each class one contiguous block
	where   []int32 // node → its position in perm; first degree counts
	classes []class
	touched []int32 // classes with a dirty member
	splits  []int32 // the round's splits: class, part count, part ends
	sigs    []int64 // signatures of the class being split
	items   []item  // its signed nodes; or a moved class's nodes

	// Traversal scratch (BFS/DFS).
	nodes   []hypergraph.NodeID
	visited []bool
	nbs     []hypergraph.NodeID
	work    []hypergraph.NodeID
}

// tuple is one static neighbor entry of the FP table: a node's tuple
// for neighbor u of edge e is pre<<32 | the position of u's class,
// which is all a refinement round rewrites.
type tuple struct {
	pre uint32 // lab(e)<<12 | pos(v, e)<<6 | pos(u, e), lab(e) ranked if wide
	nbr int32  // u's node index
}

// class is a block perm[start:end]. Its start is the class's color:
// blocks are laid out in color order, so the starts rank the classes
// as dense colors would. The block's first dirty members are those
// with a neighbor that moved to another class since the block was
// last signed.
type class struct {
	start, end int32
	dirty      int32 // also the cursor of the final counting sort
}

// item is a signed node. Its signature's first tuple is first, and the
// others are at sigs[off:], so a sort on single-tuple signatures
// compares items only. An empty signature has first math.MinInt64,
// which no tuple packs to: a tuple's two positions differ.
type item struct {
	first     int64
	node, off int32
}

// NewRefiner returns an empty Refiner. Buffers are grown lazily on
// first use.
func NewRefiner() *Refiner { return &Refiner{} }

// Reset drops the previous order, keeping every buffer: Seq becomes
// empty and Pos -1 throughout. Every Compute starts with it, so no
// result depends on the previous call.
func (r *Refiner) Reset() {
	for _, v := range r.res.Seq {
		r.res.Pos[v] = -1
	}
	r.res.Seq = r.res.Seq[:0]
}

// Compute returns the requested order of g's alive nodes. The seed is
// used only by Random. The result aliases Refiner-owned storage; see
// the type comment.
func (r *Refiner) Compute(g *hypergraph.Graph, kind Kind, seed int64) *Result {
	r.Reset()
	r.res.Pos = r.sizePos(int(g.MaxNodeID()) + 1)
	switch kind {
	case Natural:
		r.res.Seq = g.AppendNodes(r.res.Seq)
		r.finishTotal()
	case BFS:
		r.traverse(g, false)
		r.finishTotal()
	case DFS:
		r.traverse(g, true)
		r.finishTotal()
	case Random:
		seq := g.AppendNodes(r.res.Seq)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		r.res.Seq = seq
		r.finishTotal()
	case FP0:
		r.degreeOrder(g)
	case FP:
		r.refine(g)
	default:
		panic(fmt.Sprintf("order: unknown kind %d", int(kind)))
	}
	return &r.res
}

// sizePos returns res.Pos at length n. Its backing array holds -1
// throughout once Reset has run, so only a grown array is filled.
func (r *Refiner) sizePos(n int) []int32 {
	if cap(r.res.Pos) >= n {
		return r.res.Pos[:n]
	}
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// finishTotal completes a total order: Pos is filled from Seq and the
// class count is the node count.
func (r *Refiner) finishTotal() {
	for i, v := range r.res.Seq {
		r.res.Pos[v] = int32(i)
	}
	r.res.Classes = len(r.res.Seq)
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

// degreeOrder is FP0, the plain degree order: the alive nodes by
// (degree, ID), one class per distinct degree, by one stable counting
// sort.
func (r *Refiner) degreeOrder(g *hypergraph.Graph) {
	seq := g.AppendNodes(r.res.Seq)
	cnt, distinct := r.degreeStarts(g, seq)
	perm := buf.Grow(r.perm, len(seq))
	for _, v := range seq {
		d := g.Degree(v)
		perm[cnt[d]] = int32(v)
		cnt[d]++
	}
	r.perm, r.res.Seq, r.res.Classes = perm, seq, distinct
	r.finishFrom(perm)
}

// degreeStarts returns cnt, where cnt[d] is the first position of
// degree d in the (degree, ID) order of nodes, and the number of
// distinct degrees. cnt lives in r.where, which it sizes for both
// uses.
func (r *Refiner) degreeStarts(g *hypergraph.Graph, nodes []hypergraph.NodeID) (cnt []int32, distinct int) {
	maxDeg := 0
	for _, v := range nodes {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	r.where = buf.Grow(r.where, max(len(nodes), maxDeg+2))
	cnt = r.where[:maxDeg+2]
	clear(cnt)
	for _, v := range nodes {
		cnt[g.Degree(v)+1]++
	}
	for d := 1; d < len(cnt); d++ {
		if cnt[d] > 0 {
			distinct++
		}
		cnt[d] += cnt[d-1]
	}
	return cnt, distinct
}

// finishFrom copies the order in perm, given as node IDs, into Seq and
// Pos.
func (r *Refiner) finishFrom(perm []int32) {
	for p, v := range perm {
		r.res.Seq[p], r.res.Pos[v] = hypergraph.NodeID(v), int32(p)
	}
}

// refine runs the FP fixpoint of Sec. III-B1: c0(v) = d(v); each round
// maps v to the tuple (c(v), sorted incident-edge signatures) and
// relabels tuples by their lexicographic rank, until a round splits no
// class. The order is then by (color, ID), and Classes the number of
// colors.
//
// The paper defines the computation for undirected unlabeled graphs
// and notes it "can be straightforwardly extended to directed labeled
// graphs"; our signatures include the edge label and the positions of
// both endpoints in the attachment sequence, which specializes to
// (label, direction) for rank-2 edges and covers hyperedges.
//
// The rounds are the paper's, but a round touches only what can
// change. Each class is a block of perm, and the block's start stands
// for the dense rank: both rank the classes alike, so every tuple
// comparison comes out the same. A round sorts each class on its own,
// as the previous color is the signature's first key. When a class
// splits, its largest part keeps the class, and only the nodes of the
// other parts move. A class none of whose members has a moved
// neighbor cannot split: its members' signatures read the same
// classes as in the round that last found them equal. So a round signs
// only the nodes next to a moved node, plus one unchanged member that
// stands for the rest of their class. A node moves into a class at
// most half its old one's size, so at most log2 n times.
func (r *Refiner) refine(g *hypergraph.Graph) {
	// Seq lists the alive nodes, and Pos maps them to their indices,
	// until the order overwrites both.
	nodes, pos := g.AppendNodes(r.res.Seq), r.res.Pos
	for i, v := range nodes {
		pos[v] = int32(i)
	}
	r.res.Seq = nodes
	cnt, _ := r.degreeStarts(g, nodes)
	r.buildTable(g, cnt)
	r.partitionByDegree(g, cnt)
	for len(r.touched) > 0 {
		r.splits = r.splits[:0]
		for _, c := range r.touched {
			r.split(c)
		}
		r.touched = r.touched[:0]
		r.applySplits()
	}

	// (color, ID) order by a counting sort: nodes ascend by ID, and
	// each class's block start is its first position.
	for i, v := range nodes {
		c := &r.classes[r.cls[i]]
		r.perm[c.start+c.dirty] = int32(v)
		c.dirty++
	}
	r.finishFrom(r.perm)
	r.res.Classes = len(r.classes)
}

// buildTable lays out the alive nodes' neighbor tuples once per
// Compute: one per (incident edge, other attached node). pos must map
// alive IDs to node indices, and cnt[d] be the first position of
// degree d (degreeStarts). A node alone with its degree gets none: its
// class never splits and never moves, so its tuples would never be
// read. Labels are packed as they are, and packed again as ranks in
// the rare graph whose labels do not fit.
func (r *Refiner) buildTable(g *hypergraph.Graph, cnt []int32) {
	r.labels = r.labels[:0]
	if maxLab := r.fillTable(g, cnt); maxLab >= 1<<labelBits {
		r.rankLabels(g)
		r.fillTable(g, cnt)
	}
}

// fillTable fills r.tstart and r.tab, packing labels as ranks in
// r.labels when it is not empty, and returns the largest label of any
// alive edge. A rank-2 graph has as many tuples as incidences.
func (r *Refiner) fillTable(g *hypergraph.Graph, cnt []int32) hypergraph.Label {
	nodes, pos, labels := r.res.Seq, r.res.Pos, r.labels
	alone := func(v hypergraph.NodeID) bool { d := g.Degree(v); return cnt[d+1]-cnt[d] == 1 }
	tstart := buf.Grow(r.tstart, len(nodes)+1)
	incidences := 0
	for _, v := range nodes {
		if !alone(v) {
			incidences += g.Degree(v)
		}
	}
	tab := r.tab[:0]
	if cap(tab) < incidences {
		tab = make([]tuple, 0, incidences)
	}
	maxLab := hypergraph.Label(0)
	for i, v := range nodes {
		tstart[i] = int32(len(tab))
		if alone(v) {
			// Its labels still decide whether labels are ranked.
			for id := range g.IncidentSeqRO(v) {
				maxLab = max(maxLab, g.Label(id))
			}
			continue
		}
		for id := range g.IncidentSeqRO(v) {
			lab := g.Label(id)
			maxLab = max(maxLab, lab)
			if len(labels) > 0 {
				rank, _ := slices.BinarySearch(labels, lab)
				lab = hypergraph.Label(rank)
			}
			// Positions stay well below their 6 bits, and rankLabels
			// keeps lab inside its 20.
			att := g.Att(id)
			pre := uint32(lab)<<12 | uint32(slices.Index(att, v))<<6
			for otherPos, u := range att {
				if u != v {
					tab = append(tab, tuple{pre: pre | uint32(otherPos), nbr: pos[u]})
				}
			}
		}
	}
	tstart[len(nodes)] = int32(len(tab))
	r.tstart, r.tab = tstart, tab
	return maxLab
}

// labelBits is the width of the label field in a packed neighbor
// tuple.
const labelBits = 20

// rankLabels sets r.labels to g's distinct labels in ascending order,
// for a graph whose largest label does not fit the packed tuple's
// label field: a wider label would lose its high bits and pack equal
// to a smaller one. Packing each label's rank instead keeps labels
// apart while g has at most 2^20 distinct ones.
func (r *Refiner) rankLabels(g *hypergraph.Graph) {
	for id := range g.EdgesSeq() {
		r.labels = append(r.labels, g.Label(id))
	}
	slices.Sort(r.labels)
	r.labels = slices.Compact(r.labels)
}

// partitionByDegree makes round 0's classes from degreeStarts' cnt,
// one per degree in ascending order, with every node dirty, and sizes
// the signature scratch for the largest that can split: later classes
// are parts of these.
func (r *Refiner) partitionByDegree(g *hypergraph.Graph, cnt []int32) {
	nodes := r.res.Seq
	n := len(nodes)
	perm := buf.Grow(r.perm, n)
	for i, v := range nodes {
		d := g.Degree(v)
		perm[cnt[d]] = int32(i)
		cnt[d]++
	}
	// cnt[d] is now the end of degree d's block.
	classes, touched := r.classes[:0], r.touched[:0]
	start := int32(0)
	for _, end := range cnt[:len(cnt)-1] {
		if end > start {
			touched = append(touched, int32(len(classes)))
			classes = append(classes, class{start: start, end: end, dirty: end - start})
			start = end
		}
	}
	cls, where := buf.Grow(r.cls, n), r.where
	maxItems, maxSigs := int32(0), int32(0)
	for c, cl := range classes {
		sigs := int32(0)
		for p := cl.start; p < cl.end; p++ {
			i := perm[p]
			cls[i], where[i] = int32(c), p
			sigs += max(r.tstart[i+1]-r.tstart[i]-1, 0)
		}
		if cl.end-cl.start > 1 { // a class of one is never signed
			maxItems, maxSigs = max(maxItems, cl.end-cl.start), max(maxSigs, sigs)
		}
	}
	r.perm, r.cls, r.where = perm, cls, where
	r.classes, r.touched = classes, touched
	r.items = buf.Grow(r.items, int(maxItems))
	r.sigs = buf.Grow(r.sigs, int(maxSigs)+1) // sign's one spare key
}

// split signs class c's dirty members, and one clean member for the
// rest, sorts them, and records in r.splits the parts the class falls
// into, laying its block out part by part. No class changes before
// applySplits, so all of a round's signatures read one partition.
func (r *Refiner) split(c int32) {
	cl := &r.classes[c]
	s, e, d := cl.start, cl.end, cl.dirty
	cl.dirty = 0
	if e-s < 2 {
		return
	}
	items := r.items[:0]
	r.sigs = r.sigs[:0]
	for _, i := range r.perm[s : s+d] {
		items = append(items, r.sign(i))
	}
	clean, rep := e-s-d, int32(-1)
	if clean > 0 {
		rep = r.perm[s+d]
		items = append(items, r.sign(rep))
	}
	sigs, tstart := r.sigs, r.tstart
	rest := func(it item) []int64 {
		return sigs[it.off : it.off+max(tstart[it.node+1]-tstart[it.node]-1, 0)]
	}
	compare := func(a, b item) int {
		if c := cmp.Compare(a.first, b.first); c != 0 || len(sigs) == 0 {
			return c
		}
		return compareSig(rest(a), rest(b))
	}
	if len(sigs) == 0 {
		sortFirst(items) // no signature is longer than its first tuple
	} else {
		slices.SortFunc(items, compare)
	}

	// The parts' ends as perm positions; rep stands for clean nodes.
	hdr := len(r.splits)
	splits := append(r.splits, c, 0)
	p := s
	for k, it := range items {
		if it.node == rep {
			p += clean
		} else {
			p++
		}
		if k+1 == len(items) || compare(it, items[k+1]) != 0 {
			splits = append(splits, p)
		}
	}
	parts := int32(len(splits) - hdr - 2)
	if parts == 1 {
		r.splits = splits[:hdr]
		return
	}
	splits[hdr+1] = parts
	r.splits = splits
	r.layout(s, e, d, rep, items)
}

// layout rewrites block perm[s:e], whose first d members are dirty,
// in the order of the sorted items, with the clean members where rep
// sorted. It moves at most d of the clean ones.
func (r *Refiner) layout(s, e, d, rep int32, items []item) {
	perm, where := r.perm, r.where
	clean := e - s - d
	if rep >= 0 {
		// The clean members go to [s+rk, e-d+rk), rk being rep's rank.
		rk := int32(slices.IndexFunc(items, func(it item) bool { return it.node == rep }))
		if shift := d - rk; shift > 0 {
			from, to := s+d, s+rk // move all the clean members left
			if clean > shift {
				from, to = e-shift, s+rk // or only the tail past the new end
			}
			for p := from; p < e; p++ {
				i := perm[p]
				perm[to], where[i] = i, to
				to++
			}
		}
	}
	p := s
	for _, it := range items {
		if it.node == rep {
			p += clean
			continue
		}
		perm[p], where[it.node] = it.node, p
		p++
	}
}

// sign appends node i's signature to r.sigs: its tuples with the
// current class positions, sorted. The node's own class, the
// signature's first key, is left out, as only members of one class
// are compared.
func (r *Refiner) sign(i int32) item {
	tuples := r.tab[r.tstart[i]:r.tstart[i+1]]
	it := item{first: math.MinInt64, node: i, off: int32(len(r.sigs))}
	switch len(tuples) {
	case 0:
	case 1:
		it.first = r.key(tuples[0])
	default:
		// Sort the keys in the arena, then move the smallest out.
		sigs := r.sigs
		for _, t := range tuples {
			sigs = append(sigs, r.key(t))
		}
		s := sigs[it.off:]
		slices.Sort(s)
		it.first = s[0]
		r.sigs = append(sigs[:it.off], s[1:]...)
	}
	return it
}

// key is tuple t as it reads this round.
func (r *Refiner) key(t tuple) int64 {
	return int64(t.pre)<<32 | int64(r.classes[r.cls[t.nbr]].start)
}

// applySplits turns the round's recorded parts into classes. The
// largest part of a split class keeps it; every other part becomes a
// new class, and the neighbors of its nodes turn dirty.
func (r *Refiner) applySplits() {
	first := int32(len(r.classes))
	for k := 0; k < len(r.splits); {
		c, parts := r.splits[k], r.splits[k+1]
		ends := r.splits[k+2 : k+2+int(parts)]
		k += 2 + int(parts)
		big, bigLen, prev := 0, int32(0), r.classes[c].start
		for j, end := range ends {
			if end-prev > bigLen {
				big, bigLen = j, end-prev
			}
			prev = end
		}
		prev = r.classes[c].start
		for j, end := range ends {
			if j == big {
				r.classes[c].start, r.classes[c].end = prev, end
			} else {
				id := int32(len(r.classes))
				r.classes = append(r.classes, class{start: prev, end: end})
				for _, i := range r.perm[prev:end] {
					r.cls[i] = id
				}
			}
			prev = end
		}
	}
	for c := first; c < int32(len(r.classes)); c++ {
		// Marking reorders blocks, this one too, so walk a copy.
		moved := r.items[:0]
		for _, i := range r.perm[r.classes[c].start:r.classes[c].end] {
			moved = append(moved, item{node: i})
		}
		for _, it := range moved {
			for _, t := range r.tab[r.tstart[it.node]:r.tstart[it.node+1]] {
				r.mark(t.nbr)
			}
		}
	}
}

// mark makes node i dirty: it moves to the front of its class's
// block, behind the class's other dirty members. A class of one node
// cannot split, so its node is never marked.
func (r *Refiner) mark(i int32) {
	c := r.cls[i]
	cl := &r.classes[c]
	q := cl.start + cl.dirty
	if cl.end-cl.start < 2 || r.where[i] < q {
		return
	}
	if cl.dirty == 0 {
		r.touched = append(r.touched, c)
	}
	p, j := r.where[i], r.perm[q]
	r.perm[q], r.perm[p] = i, j
	r.where[i], r.where[j] = q, p
	cl.dirty++
}

// sortFirst sorts items by first: an in-place radix sort (American
// flag sort) on the bytes in which firsts differ, most significant
// first. A class of many one-tuple signatures, such as the leaves of a
// hub, holds few distinct keys, so a pass or two sorts it.
func sortFirst(items []item) {
	if len(items) < 64 {
		slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.first, b.first) })
		return
	}
	diff := uint64(0)
	for _, it := range items {
		diff |= uint64(it.first ^ items[0].first)
	}
	if diff == 0 {
		return
	}
	// Flipping the sign bit makes unsigned byte order signed order.
	shift := uint(63-bits.LeadingZeros64(diff)) &^ 7
	digit := func(it item) byte { return byte((uint64(it.first) ^ 1<<63) >> shift) }
	var next, end [256]int
	for _, it := range items {
		end[digit(it)]++
	}
	sum := 0
	for b := range end {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := range next {
		for next[b] < end[b] {
			it := items[next[b]]
			// Carry it to its bucket, taking the item there along.
			for d := digit(it); d != byte(b); d = digit(it) {
				items[next[d]], it = it, items[next[d]]
				next[d]++
			}
			items[next[b]] = it
			next[b]++
		}
	}
	start := 0
	for b := range end {
		sortFirst(items[start:end[b]])
		start = end[b]
	}
}

// compareSig orders signatures lexicographically, shorter-is-smaller
// on a shared prefix.
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
