package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphrepair/internal/hypergraph"
)

// arenaBoundaries returns the first index of each arena segment after
// the first, up to n: 64, 192, 448, 960, … (segment k starts at
// 64·(2^k−1)).
func arenaBoundaries(n int) []int {
	var out []int
	for b := 1 << arenaBase; b <= n; b = 2*b + 1<<arenaBase {
		out = append(out, b)
	}
	return out
}

// TestArenaMatchesSliceTwin runs random push / at / write / reset
// sequences against a plain slice and requires identical contents
// after every step, then walks every segment boundary up to 16k
// entries (63/64, 191/192, …), and checks that a pointer from at
// survives later pushes (segments are never copied).
func TestArenaMatchesSliceTwin(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a arena[int64]
		var twin []int64
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(1000); {
			case r < 2:
				a.reset()
				twin = twin[:0]
			case r < 700:
				v := rng.Int63()
				if i := a.push(v); int(i) != len(twin) {
					t.Fatalf("seed %d step %d: push returned %d, want %d", seed, step, i, len(twin))
				}
				twin = append(twin, v)
			case len(twin) > 0:
				i := rng.Intn(len(twin))
				if got := *a.at(int32(i)); got != twin[i] {
					t.Fatalf("seed %d step %d: at(%d) = %d, want %d", seed, step, i, got, twin[i])
				}
				v := rng.Int63()
				*a.at(int32(i)) = v
				twin[i] = v
			}
			if int(a.n) != len(twin) {
				t.Fatalf("seed %d step %d: %d entries, want %d", seed, step, a.n, len(twin))
			}
		}
		for i, v := range twin {
			if got := *a.at(int32(i)); got != v {
				t.Fatalf("seed %d: final at(%d) = %d, want %d", seed, i, got, v)
			}
		}
	}

	const n = 16 << 10
	var a arena[int32]
	first := a.push(-1)
	p := a.at(first)
	for i := int32(1); i < n; i++ {
		a.push(i)
	}
	*p = 0 // must write through to entry 0
	for _, b := range arenaBoundaries(n - 1) {
		for _, i := range []int32{int32(b) - 1, int32(b)} {
			if got := *a.at(i); got != i {
				t.Fatalf("at(%d) = %d across the segment boundary at %d", i, got, b)
			}
		}
		if &a.segs[0][0] == a.at(int32(b)) {
			t.Fatalf("boundary %d aliases entry 0", b)
		}
	}
	for i := int32(0); i < n; i++ {
		if got := *a.at(i); got != i {
			t.Fatalf("at(%d) = %d", i, got)
		}
	}
	if p != a.at(0) {
		t.Fatal("the pointer to entry 0 moved: a segment was copied")
	}
}

// TestArenaRefillAllocs pins reset's contract: it keeps every segment,
// so refilling an arena to its previous high-water mark allocates
// nothing, and growing past it adds segments without moving the old
// ones.
func TestArenaRefillAllocs(t *testing.T) {
	const high = 3000 // inside the sixth segment
	var a arena[occEntry]
	fill := func(n int) {
		a.reset()
		for i := 0; i < n; i++ {
			a.push(occEntry{oi: int32(i)})
		}
	}
	fill(high)
	segs := len(a.segs)
	if n := testing.AllocsPerRun(100, func() { fill(high) }); n != 0 {
		t.Errorf("refilling to the high-water mark allocates %v/op, want 0", n)
	}
	if len(a.segs) != segs {
		t.Errorf("reset dropped segments: %d, want %d", len(a.segs), segs)
	}
	old := make([]*occEntry, segs)
	for k := range old {
		old[k] = &a.segs[k][0]
	}
	fill(4 * high)
	for k, p := range old {
		if &a.segs[k][0] != p {
			t.Fatalf("growing past the high-water mark moved segment %d", k)
		}
	}
}

// TestDigramOccChainArenaOrder replays randomized append sequences
// interleaved across digrams (with a mid-run stage reset) and checks
// that every digram's chain visits its occurrences in exact append
// order, against a slice oracle — mirroring TestIncidenceChainOrder.
// replaceDigram's two-pass iteration (collect live occurrences, then
// replace them) reads this chain, so the grammar output depends on
// append order being preserved.
func TestDigramOccChainArenaOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s digramOccs
		var pool []digramInfo
		oracle := map[int][]int32{}
		s.reset()
		for step := 0; step < 600; step++ {
			if step == 300 {
				// Stage boundary: arena truncated, digrams rebuilt.
				s.reset()
				pool = pool[:0]
				oracle = map[int][]int32{}
			}
			if len(pool) == 0 || rng.Intn(5) == 0 {
				pool = appendDigram(pool, digramKey{la: hypergraph.Label(len(pool) + 1)})
			}
			di := rng.Intn(len(pool))
			oi := int32(step)
			s.add(&pool[di], oi)
			oracle[di] = append(oracle[di], oi)
			// Verify every chain after every step, like the incidence
			// oracle does.
			for d := range pool {
				var got []int32
				for i := pool[d].occHead; i != noEntry; i = s.pool.at(i).next {
					got = append(got, s.pool.at(i).oi)
				}
				want := oracle[d]
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: digram %d chain %v, want %v", seed, step, d, got, want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("seed %d step %d: digram %d chain %v, want %v (append order)", seed, step, d, got, want)
					}
				}
			}
		}
	}
}

// TestDigramOccChainArenaAllocs pins the warm chain arena to zero
// allocations: once the pool is at its high-water capacity, a stage's
// worth of occurrence appends allocates nothing.
func TestDigramOccChainArenaAllocs(t *testing.T) {
	var s digramOccs
	var pool []digramInfo
	for i := 0; i < 8; i++ {
		pool = appendDigram(pool, digramKey{la: hypergraph.Label(i + 1)})
	}
	fill := func() {
		s.reset()
		for i := range pool {
			pool[i].occHead, pool[i].occTail = noEntry, noEntry
		}
		for k := 0; k < 200; k++ {
			s.add(&pool[k%len(pool)], int32(k))
		}
	}
	fill() // reach the high-water mark
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Errorf("warm digram occurrence chains allocate %v/op, want 0", n)
	}
}

// TestEdgeOccsChainOrder pins the arena's iteration contract: each
// edge's chain yields its entries in insertion order (the replacement
// loop's invalidation order — and thus the grammar output — depends on
// it), and keyUsed sees exactly the hashes added for that edge.
func TestEdgeOccsChainOrder(t *testing.T) {
	var s edgeOccs
	s.reset(4, 0)
	s.add(2, 100, 0)
	s.add(1, 200, 1)
	s.add(2, 300, 2)
	s.add(2, 400, 3)

	var got []int32
	for i := s.head[2]; i >= 0; i = s.pool.at(i).next {
		got = append(got, s.pool.at(i).oi)
	}
	want := []int32{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("chain of edge 2 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain of edge 2 = %v, want %v (insertion order)", got, want)
		}
	}
	if !s.keyUsed(2, 300) || s.keyUsed(2, 200) || !s.keyUsed(1, 200) {
		t.Fatal("keyUsed does not match the per-edge hash sets")
	}
	s.clear(2)
	if s.keyUsed(2, 100) {
		t.Fatal("clear did not drop edge 2's chain")
	}
	if !s.keyUsed(1, 200) {
		t.Fatal("clear of edge 2 affected edge 1")
	}

	// After a stage reset, nothing is used.
	s.reset(4, 0)
	if s.keyUsed(1, 200) {
		t.Fatal("reset did not clear the chains")
	}
}

// TestArenaSteadyStateAllocs proves the per-stage arenas are
// allocation-free once warm: resetting and refilling the shared
// occurrence/used arena (the markUsed/addOcc replacement) within
// established capacity must not allocate at all.
func TestArenaSteadyStateAllocs(t *testing.T) {
	const edges, entries = 64, 500
	var s edgeOccs
	s.reset(edges, 0)
	for i := 0; i < entries; i++ {
		s.add(hypergraph.EdgeID(i%edges), uint64(i), int32(i))
	}
	if n := testing.AllocsPerRun(100, func() {
		s.reset(edges, 0)
		for i := 0; i < entries; i++ {
			s.add(hypergraph.EdgeID(i%edges), uint64(i), int32(i))
		}
	}); n != 0 {
		t.Errorf("warm edgeOccs reset+refill allocates %v/op, want 0", n)
	}

	// grow within previously established slot capacity is also free.
	s.reset(edges/2, 0)
	if n := testing.AllocsPerRun(100, func() {
		s.grow(edges)
	}); n != 0 {
		t.Errorf("warm edgeOccs.grow allocates %v/op, want 0", n)
	}
}

// TestEdgeInternerExact is the property check that interned keys agree
// with exact (label, attachment) equality: two rank-2 edges get the
// same dense ID iff their (label, src, dst) tuples are equal — the
// guarantee the 64-bit FNV EdgeKey of the pre-PR-3 compressor could
// not give.
func TestEdgeInternerExact(t *testing.T) {
	var it edgeInterner
	it.reset(16)
	f := func(l1, l2 int32, u1, v1, u2, v2 int16) bool {
		a := it.intern(hypergraph.Label(l1), hypergraph.NodeID(u1), hypergraph.NodeID(v1))
		b := it.intern(hypergraph.Label(l2), hypergraph.NodeID(u2), hypergraph.NodeID(v2))
		equal := l1 == l2 && u1 == u2 && v1 == v2
		if (a == b) != equal {
			return false
		}
		// Interning is stable and never loses count slots.
		return it.intern(hypergraph.Label(l1), hypergraph.NodeID(u1), hypergraph.NodeID(v1)) == a &&
			int(a) < len(it.counts) && int(b) < len(it.counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEdgeInterner fuzzes the same exactness property with
// coverage-guided tuples, including near-collision patterns (swapped
// source/target, label vs node confusion) the FNV key was weakest on.
func FuzzEdgeInterner(f *testing.F) {
	f.Add(int32(1), int32(1), int32(2), int32(1), int32(2), int32(1))
	f.Add(int32(7), int32(3), int32(4), int32(7), int32(4), int32(3))
	f.Add(int32(5), int32(5), int32(5), int32(5), int32(5), int32(5))
	f.Fuzz(func(t *testing.T, l1, u1, v1, l2, u2, v2 int32) {
		var it edgeInterner
		it.reset(4)
		a := it.intern(hypergraph.Label(l1), hypergraph.NodeID(u1), hypergraph.NodeID(v1))
		b := it.intern(hypergraph.Label(l2), hypergraph.NodeID(u2), hypergraph.NodeID(v2))
		equal := l1 == l2 && u1 == u2 && v1 == v2
		if (a == b) != equal {
			t.Fatalf("intern(%d,%d,%d)=%d, intern(%d,%d,%d)=%d; tuples equal: %v",
				l1, u1, v1, a, l2, u2, v2, b, equal)
		}
		if got := it.intern(hypergraph.Label(l1), hypergraph.NodeID(u1), hypergraph.NodeID(v1)); got != a {
			t.Fatalf("re-intern not stable: %d then %d", a, got)
		}
	})
}
