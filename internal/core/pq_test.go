package core

import (
	"math/rand"
	"testing"

	"graphrepair/internal/hypergraph"
)

// qfix bundles a bucket queue with the digram pool its indices point
// into.
type qfix struct {
	pool []digramInfo
	q    bucketQueue
}

func newQfix(numEdges int) *qfix {
	f := &qfix{}
	f.q.reset(numEdges)
	return f
}

func (f *qfix) mk(count int) int32 {
	di := int32(len(f.pool))
	f.pool = appendDigram(f.pool, digramKey{la: 1})
	f.pool[di].count = int32(count)
	return di
}

func (f *qfix) update(di int32) { f.q.update(f.pool, di) }
func (f *qfix) popMax() int32   { return f.q.popMax(f.pool) }
func (f *qfix) d(di int32) *digramInfo {
	return &f.pool[di]
}

func TestBucketQueueBasicMax(t *testing.T) {
	f := newQfix(100) // B = 10
	d3, d7, d2 := f.mk(3), f.mk(7), f.mk(2)
	f.update(d3)
	f.update(d7)
	f.update(d2)
	if got := f.popMax(); got != d7 {
		t.Fatalf("popMax = %v, want count-7 digram", got)
	}
	f.d(d7).retired = true
	if got := f.popMax(); got != d3 {
		t.Fatal("second pop wrong")
	}
	f.d(d3).retired = true
	if got := f.popMax(); got != d2 {
		t.Fatal("third pop wrong")
	}
	f.d(d2).retired = true
	if got := f.popMax(); got != noDigram {
		t.Fatal("queue should be empty")
	}
}

func TestBucketQueueOverflowBucketExactMax(t *testing.T) {
	f := newQfix(16) // B = 4: counts ≥ 4 share the top bucket
	d5, d50, d9 := f.mk(5), f.mk(50), f.mk(9)
	f.update(d5)
	f.update(d50)
	f.update(d9)
	if got := f.popMax(); got != d50 {
		t.Fatalf("overflow bucket scan picked count %d, want 50", f.d(got).count)
	}
}

func TestBucketQueueStaleEntriesSkipped(t *testing.T) {
	f := newQfix(100)
	d := f.mk(8)
	f.update(d)
	// Count decays below 2: digram must not be returned.
	f.d(d).count = 1
	if got := f.popMax(); got != noDigram {
		t.Fatalf("inactive digram returned (count %d)", f.d(got).count)
	}
	// Count recovers: re-update re-enqueues.
	f.d(d).count = 5
	f.update(d)
	if got := f.popMax(); got != d {
		t.Fatal("recovered digram not returned")
	}
}

func TestBucketQueueReEnqueueOnCountChange(t *testing.T) {
	f := newQfix(100)
	d := f.mk(9)
	f.update(d)
	f.d(d).count = 3 // decayed but still active
	f.update(d)
	if got := f.popMax(); got != d {
		t.Fatal("digram lost after decay")
	}
	f.d(d).retired = true
	if f.popMax() != noDigram {
		t.Fatal("duplicate entry returned after retirement")
	}
}

// TestBucketQueueResetReuse exercises the per-stage reset: a reused
// queue must behave identically to a fresh one and must not resurrect
// entries from the previous stage.
func TestBucketQueueResetReuse(t *testing.T) {
	f := newQfix(100)
	stale := f.mk(9)
	f.update(stale)
	f.q.reset(16)
	f.pool = f.pool[:0]
	fresh := f.mk(4)
	f.update(fresh)
	if got := f.popMax(); got != fresh {
		t.Fatalf("after reset popped %d, want %d", got, fresh)
	}
	if got := f.popMax(); got != noDigram {
		t.Fatal("reset queue retained stale entries")
	}
}

// Randomized model check: the queue always pops an active digram with
// the maximal current count.
func TestBucketQueueModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		f := newQfix(1 + rng.Intn(200))
		var all []int32
		for i := 0; i < 30; i++ {
			d := f.mk(rng.Intn(25))
			all = append(all, d)
			f.update(d)
		}
		for step := 0; step < 40; step++ {
			// Random count mutations.
			d := all[rng.Intn(len(all))]
			if !f.d(d).retired {
				f.d(d).count = int32(rng.Intn(25))
				f.update(d)
			}
			if rng.Intn(3) != 0 {
				continue
			}
			got := f.popMax()
			// Model: the maximal active count.
			best := int32(0)
			for _, x := range all {
				if dx := f.d(x); !dx.retired && dx.count >= 2 && dx.count > best {
					best = dx.count
				}
			}
			if best == 0 {
				if got != noDigram {
					t.Fatalf("trial %d: popped from empty model", trial)
				}
				continue
			}
			if got == noDigram {
				t.Fatalf("trial %d: queue empty but model has count %d", trial, best)
			}
			if f.d(got).retired || f.d(got).count < 2 {
				t.Fatalf("trial %d: popped inactive digram", trial)
			}
			if f.d(got).count != best {
				t.Fatalf("trial %d: popped count %d, max is %d", trial, f.d(got).count, best)
			}
			f.d(got).retired = true
		}
	}
}

// TestBucketQueueSpliceAllocs pins the chained-arena property: once
// the entry pool and the O(√|E|) head/tail arrays are at their
// high-water capacity, a full stage worth of queue traffic — reset,
// enqueues, count-change re-enqueues (which splice stale tails off on
// pop) and draining — allocates nothing at all.
func TestBucketQueueSpliceAllocs(t *testing.T) {
	var q bucketQueue
	var pool []digramInfo
	const n = 200
	for i := 0; i < n; i++ {
		pool = appendDigram(pool, digramKey{la: 1, lb: hypergraph.Label(i + 2)})
	}
	churn := func() {
		q.reset(100) // b = 10
		for i := range pool {
			d := &pool[i]
			d.count = int32(2 + i%12) // spans plain and overflow buckets
			d.queuedAt = -1
			d.retired = false
			q.update(pool, int32(i))
		}
		// Decay every digram into a different bucket: the old entries go
		// stale and are spliced off (and re-enqueued) during the drain.
		for i := range pool {
			pool[i].count = int32(2 + (i+5)%12)
			q.update(pool, int32(i))
		}
		for di := q.popMax(pool); di != noDigram; di = q.popMax(pool) {
			pool[di].retired = true
		}
	}
	churn() // reach the high-water mark
	if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
		t.Fatalf("warm bucket-queue churn allocates %v/op, want 0", allocs)
	}
}

// TestBucketQueueStaleDropIsSplice checks the structural contract
// behind the zero-alloc guard: a stale tail entry is unlinked from its
// bucket chain in O(1) on pop, leaving the rest of the chain intact
// and the digram reachable through its correct bucket.
func TestBucketQueueStaleDropIsSplice(t *testing.T) {
	var q bucketQueue
	var pool []digramInfo
	q.reset(100)
	for i := 0; i < 3; i++ {
		pool = appendDigram(pool, digramKey{la: 1, lb: hypergraph.Label(i + 2)})
		pool[i].count = 5
		q.update(pool, int32(i))
	}
	chain := func(bk int) []int32 {
		// Walk tail→head over the prev links, then reverse into append
		// order.
		var dis []int32
		for i := q.tail[bk]; i != noEntry; i = q.pool.at(i).prev {
			dis = append(dis, q.pool.at(i).di)
		}
		for l, r := 0, len(dis)-1; l < r; l, r = l+1, r-1 {
			dis[l], dis[r] = dis[r], dis[l]
		}
		return dis
	}
	if got := chain(5); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("bucket 5 chain = %v, want [0 1 2]", got)
	}
	// Digram 2 decays: its bucket-5 entry goes stale, and the next pop
	// must splice it off the tail and return the still-valid digram 1.
	pool[2].count = 3
	q.update(pool, 2)
	if got := q.popMax(pool); got != 1 {
		t.Fatalf("popMax = %d, want 1 (digram 2 is stale in bucket 5)", got)
	}
	if got := chain(5); len(got) != 1 || got[0] != 0 {
		t.Fatalf("bucket 5 chain after splices = %v, want [0]", got)
	}
	// The discarded stale entry was re-enqueued into the correct bucket
	// even though digram 2 already had an entry there — the legacy
	// multi-entry recency rule the grammar output depends on.
	if got := chain(3); len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Fatalf("bucket 3 chain = %v, want [2 2] (re-enqueue on stale drop)", got)
	}
}
