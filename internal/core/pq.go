package core

// occurrence is one counted, non-overlapping occurrence of a digram.
// It stays registered in the occurrence lists of both of its edges;
// when either edge is consumed by another replacement the occurrence
// is invalidated and its digram's count decremented (the "update
// occurrence lists" step, Sec. III-A2). Occurrences live in the
// compressor's occPool arena and are referenced by index, never by
// pointer, so the arena can grow and be reset without churning the
// garbage collector (DESIGN.md §5.6).
type occurrence struct {
	e1, e2 int32 // edge IDs
	dig    int32 // index into the compressor's digram pool
	dead   bool
}

// noDigram is the sentinel index for "no digram".
const noDigram int32 = -1

// digramInfo tracks one active digram: its occurrence chain (head and
// tail into the compressor's shared digOccs arena, append order
// preserved) and its position in the frequency priority queue. Infos
// live in the compressor's digramPool arena.
type digramInfo struct {
	key              digramKey
	occHead, occTail int32 // digOccs chain ends, noEntry when empty
	count            int32 // live occurrences
	queuedAt         int32 // bucket the digram was last enqueued into (-1: none)
	retired          bool
}

// appendDigram allocates a digram in the pool, reusing a previously
// truncated slot when one is available.
func appendDigram(pool []digramInfo, key digramKey) []digramInfo {
	if len(pool) < cap(pool) {
		pool = pool[:len(pool)+1]
	} else {
		pool = append(pool, digramInfo{})
	}
	pool[len(pool)-1] = digramInfo{key: key, occHead: noEntry, occTail: noEntry, queuedAt: -1}
	return pool
}

// qEntry is one bucket-list entry of the priority queue: a digram
// index linked into its bucket's chain. Entries live in one shared
// per-stage arena (bucketQueue.pool); a digram may have entries in
// several buckets at once (updates enqueue lazily, stale entries are
// discarded on pop), exactly like the per-bucket append slices this
// layout replaces. Only the prev link is stored: every queue
// operation works at a bucket's tail (push, stale drop, swap-remove),
// and the overflow-bucket max scan walks tail→head with a pick rule
// equivalent to the old head→tail scan, so no entry ever needs a
// forward link — keeping the entry at 8 bytes halves the arena's
// size.
type qEntry struct {
	di   int32
	prev int32 // previous entry of the same bucket (nearer the head), noEntry = first
}

// bucketQueue is the √n-bucket priority queue of Larsson & Moffat
// (Sec. III-C1 data structures): bucket i holds digrams with i live
// occurrences; the last bucket holds every digram with ≥ B
// occurrences. Each bucket is a linked chain of qEntry links carved
// from one shared arena: enqueueing appends a link at the bucket tail
// without allocating (the arena keeps its high-water segments across
// stages), and discarding a stale tail entry is an O(1) splice.
// Entries are updated lazily — a digram may appear in
// several buckets, and stale entries are discarded (and re-enqueued
// into their correct bucket) on pop, a recency rule the replacement
// loop's byte-identical output depends on: a single-entry queue that
// moves digrams eagerly on every count change reorders equal-count
// pops and drifts the goldens (DESIGN.md §10). The queue stores
// digramPool indices and is reset (not reallocated) per stage.
type bucketQueue struct {
	pool arena[qEntry] // shared entry arena, reset per stage
	tail []int32       // per bucket: last entry (pool index), noEntry = empty
	b    int           // max bucket index (≈ √|E|)
	hi   int           // highest bucket that may be non-empty
}

// reset sizes the queue for a stage over numEdges edges, resetting
// the entry arena and clearing the per-bucket chains in place; the
// tail array is O(√|E|) and grows to the high-water bucket count, so
// a warm reset allocates nothing.
func (q *bucketQueue) reset(numEdges int) {
	b := 2
	for b*b < numEdges {
		b++
	}
	if cap(q.tail) >= b+1 {
		q.tail = q.tail[:b+1]
	} else {
		q.tail = append(q.tail[:cap(q.tail)], make([]int32, b+1-cap(q.tail))...)
	}
	for i := range q.tail {
		q.tail[i] = noEntry
	}
	q.pool.reset()
	q.b = b
	q.hi = 0
}

func (q *bucketQueue) bucketFor(count int32) int {
	if int(count) > q.b {
		return q.b
	}
	return int(count)
}

// pushTail appends a new entry for digram di at the tail of bucket bk.
func (q *bucketQueue) pushTail(bk int, di int32) {
	q.tail[bk] = q.pool.push(qEntry{di: di, prev: q.tail[bk]})
}

// dropTail splices the tail entry off bucket bk (the entry stays in
// the arena until the next stage reset).
func (q *bucketQueue) dropTail(bk int) {
	q.tail[bk] = q.pool.at(q.tail[bk]).prev
}

// update (re-)enqueues digram di according to its current count.
// Digrams with fewer than two occurrences are not active and are left
// to expire.
func (q *bucketQueue) update(pool []digramInfo, di int32) {
	d := &pool[di]
	if d.retired || d.count < 2 {
		return
	}
	bk := q.bucketFor(d.count)
	if int(d.queuedAt) == bk {
		return
	}
	d.queuedAt = int32(bk)
	q.pushTail(bk, di)
	if bk > q.hi {
		q.hi = bk
	}
}

// popMax removes and returns an active digram of maximal frequency,
// or noDigram when no digram has at least two live occurrences.
// Buckets pop from the tail (most recently enqueued first); within the
// overflow bucket (counts ≥ B) the true maximum is selected by a scan
// in enqueue order, and the removal swaps the tail entry into the
// picked position — both exactly as the slice-backed queue behaved,
// so the pop sequence (and thus the grammar) is unchanged.
func (q *bucketQueue) popMax(pool []digramInfo) int32 {
	for q.hi >= 2 {
		// Drop stale entries from the tail.
		for t := q.tail[q.hi]; t != noEntry; t = q.tail[q.hi] {
			di := q.pool.at(t).di
			d := &pool[di]
			if d.retired || d.count < 2 || q.bucketFor(d.count) != q.hi || int(d.queuedAt) != q.hi {
				q.dropTail(q.hi)
				if !d.retired && d.count >= 2 {
					// Re-enqueue into its correct bucket.
					d.queuedAt = -1
					q.update(pool, di)
				}
				continue
			}
			break
		}
		if q.tail[q.hi] == noEntry {
			q.hi--
			continue
		}
		// In the overflow bucket counts differ; pick the true max. The
		// slice queue scanned head→tail with pick starting at the tail,
		// replacing on strictly greater counts — which selects the tail
		// if it holds the maximum, else the earliest entry holding it.
		// The backward walk reproduces exactly that: replace on greater,
		// or on equal once the pick has moved off the tail (each
		// equal-count entry seen later in the walk is earlier in append
		// order).
		tail := q.tail[q.hi]
		pick := tail
		if q.hi == q.b {
			for i := q.pool.at(tail).prev; i != noEntry; i = q.pool.at(i).prev {
				d := &pool[q.pool.at(i).di]
				if d.retired || d.count < 2 || int(d.queuedAt) != q.hi {
					continue
				}
				p := &pool[q.pool.at(pick).di]
				if d.count > p.count || (d.count == p.count && pick != tail) {
					pick = i
				}
			}
		}
		pe := q.pool.at(pick)
		di := pe.di
		pe.di = q.pool.at(q.tail[q.hi]).di
		q.dropTail(q.hi)
		d := &pool[di]
		if d.retired || d.count < 2 || int(d.queuedAt) != q.hi {
			continue // stale after all; loop again
		}
		return di
	}
	return noDigram
}
