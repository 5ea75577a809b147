package k2tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphrepair/internal/bitio"
)

func TestPaperFigure9LeftMatrix(t *testing.T) {
	// The 9×9 terminal-edge adjacency matrix of Fig. 9 (left): edges
	// 1→2, 1→4, 1→6, 1→8, 3→9, 5→7 with 1-based rows/cols.
	pts := []Point{{0, 1}, {0, 3}, {0, 5}, {0, 7}, {2, 8}, {4, 6}}
	tr := Build(9, 9, pts, 2)
	if tr.Size != 16 {
		t.Fatalf("padded size = %d, want 16", tr.Size)
	}
	// Paper: 3rd and 4th child of the root are 0-leaves (bottom half
	// of the 16×16 matrix is empty): root children bits are T[0..3].
	if !tr.T.Get(0) || !tr.T.Get(1) || tr.T.Get(2) || tr.T.Get(3) {
		t.Fatalf("root children = %v %v %v %v, want 1 1 0 0",
			tr.T.Get(0), tr.T.Get(1), tr.T.Get(2), tr.T.Get(3))
	}
	for _, p := range pts {
		if !tr.Get(p.R, p.C) {
			t.Fatalf("cell (%d,%d) lost", p.R, p.C)
		}
	}
	if got := tr.RowNeighbors(0); len(got) != 4 {
		t.Fatalf("row 0 = %v", got)
	}
	if got := tr.ColNeighbors(8); len(got) != 1 || got[0] != 2 {
		t.Fatalf("col 8 = %v", got)
	}
	got := tr.Points()
	if len(got) != len(pts) {
		t.Fatalf("points = %v", got)
	}
}

func TestEmptyAndFull(t *testing.T) {
	tr := Build(5, 5, nil, 2)
	for r := 0; r < 5; r++ {
		if len(tr.RowNeighbors(r)) != 0 {
			t.Fatal("empty matrix has neighbors")
		}
	}
	var pts []Point
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pts = append(pts, Point{r, c})
		}
	}
	tr = Build(4, 4, pts, 2)
	for r := 0; r < 4; r++ {
		if got := tr.RowNeighbors(r); len(got) != 4 {
			t.Fatalf("full row %d = %v", r, got)
		}
	}
	if len(tr.Points()) != 16 {
		t.Fatal("full points wrong")
	}
}

func TestTinyMatrix(t *testing.T) {
	// Height-1 tree: 2×2 matrix, all bits live in L.
	tr := Build(2, 2, []Point{{0, 0}, {1, 1}}, 2)
	if tr.T.Len() != 0 || tr.L.Len() != 4 {
		t.Fatalf("T=%d L=%d", tr.T.Len(), tr.L.Len())
	}
	if !tr.Get(0, 0) || tr.Get(0, 1) || tr.Get(1, 0) || !tr.Get(1, 1) {
		t.Fatal("cells wrong")
	}
}

func TestNonSquareIncidence(t *testing.T) {
	// Incidence-matrix use case: 3 nodes × 7 edges.
	pts := []Point{{0, 0}, {1, 0}, {2, 6}, {1, 5}}
	tr := Build(3, 7, pts, 2)
	for _, p := range pts {
		if !tr.Get(p.R, p.C) {
			t.Fatalf("cell (%d,%d) lost", p.R, p.C)
		}
	}
	if got := tr.ColNeighbors(0); len(got) != 2 {
		t.Fatalf("col 0 rows = %v", got)
	}
	if got := tr.Points(); len(got) != 4 {
		t.Fatalf("points = %v", got)
	}
}

func TestK4(t *testing.T) {
	pts := []Point{{0, 0}, {3, 9}, {9, 3}, {15, 15}}
	tr := Build(16, 16, pts, 4)
	for _, p := range pts {
		if !tr.Get(p.R, p.C) {
			t.Fatalf("k=4 cell (%d,%d) lost", p.R, p.C)
		}
	}
	if tr.Get(1, 1) {
		t.Fatal("phantom cell")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []Point
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{rng.Intn(50), rng.Intn(50)})
	}
	tr := Build(50, 50, pts, 2)
	w := bitio.NewWriter()
	tr.EncodeTo(w)
	w.WriteBits(0, 7) // trailing garbage must not confuse the decoder
	r := bitio.NewReader(w.Bytes())
	tr2, err := DecodeFrom(r)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := tr.Points(), tr2.Points()
	if len(p1) != len(p2) {
		t.Fatalf("point counts %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("point %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// Property: Get, RowNeighbors, ColNeighbors and Points agree with a
// brute-force matrix for random inputs, across k values.
func TestAgainstBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		k := 2 + rng.Intn(2) // 2 or 3
		m := make(map[Point]bool)
		var pts []Point
		for i := 0; i < rng.Intn(120); i++ {
			p := Point{rng.Intn(rows), rng.Intn(cols)}
			pts = append(pts, p)
			m[p] = true
		}
		tr := Build(rows, cols, pts, k)
		for r := 0; r < rows; r++ {
			var want []int
			for c := 0; c < cols; c++ {
				if m[Point{r, c}] != tr.Get(r, c) {
					return false
				}
				if m[Point{r, c}] {
					want = append(want, c)
				}
			}
			got := tr.RowNeighbors(r)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		for c := 0; c < cols; c++ {
			var want []int
			for r := 0; r < rows; r++ {
				if m[Point{r, c}] {
					want = append(want, r)
				}
			}
			got := tr.ColNeighbors(c)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return len(tr.Points()) == len(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCompressesWellDenseDoesNot(t *testing.T) {
	// Sanity: a single point in a 1024×1024 matrix needs far fewer
	// bits than the dense identity band.
	sparse := Build(1024, 1024, []Point{{512, 512}}, 2)
	var band []Point
	for i := 0; i < 1024; i++ {
		band = append(band, Point{i, i})
	}
	dense := Build(1024, 1024, band, 2)
	if sparse.BitLen() >= dense.BitLen() {
		t.Fatalf("sparse %d bits >= dense %d bits", sparse.BitLen(), dense.BitLen())
	}
	if sparse.BitLen() > 200 {
		t.Fatalf("single point took %d bits", sparse.BitLen())
	}
}
