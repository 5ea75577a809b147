// Package k2tree implements k²-trees (Brisaboa, Ladra & Navarro,
// "Compact representation of web graphs with extended functionality"),
// the succinct adjacency/incidence-matrix representation that
// "Compressing Graphs by Grammars" uses both to encode the
// incompressible start graph of its grammars (Sec. III-C2) and as a
// standalone baseline compressor.
//
// A k²-tree partitions an n×n boolean matrix into k² sub-squares; an
// all-zero square becomes a 0 bit, a non-empty square a 1 bit whose
// children recursively partition it. Bits of all internal levels are
// concatenated level by level into a bitmap T, the last level into a
// bitmap L; navigation uses rank1 over T. The paper (and this package
// by default) uses k = 2, which gave the best compression.
package k2tree

import (
	"fmt"
	"sort"

	"graphrepair/internal/bitio"
)

// Point is a set cell (row, column) of the boolean matrix, 0-based.
type Point struct{ R, C int }

// Tree is an immutable k²-tree.
type Tree struct {
	K    int // arity per dimension (k)
	Rows int // logical row count of the matrix
	Cols int // logical column count
	Size int // padded dimension, a power of K
	T    *bitio.Vector
	L    *bitio.Vector
	kk   int // K*K
}

// DefaultK is the arity used by the paper's experiments.
const DefaultK = 2

// Build constructs a k²-tree for a rows×cols matrix whose set cells
// are points (duplicates are tolerated). k must be >= 2.
func Build(rows, cols int, points []Point, k int) *Tree {
	if k < 2 {
		panic(fmt.Sprintf("k2tree: k = %d out of range", k))
	}
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	size := k
	for size < rows || size < cols {
		size *= k
	}
	t := &Tree{K: k, Rows: rows, Cols: cols, Size: size, kk: k * k,
		T: bitio.NewVector(0), L: bitio.NewVector(0)}

	pts := make([]Point, len(points))
	copy(pts, points)
	for _, p := range pts {
		if p.R < 0 || p.R >= rows || p.C < 0 || p.C >= cols {
			panic(fmt.Sprintf("k2tree: point (%d,%d) outside %dx%d", p.R, p.C, rows, cols))
		}
	}

	type span struct{ lo, hi int }
	spans := []span{{0, len(pts)}}
	buf := make([]Point, len(pts))
	for sz := size; sz >= k; sz /= k {
		half := sz / k
		leaf := half == 1
		var next []span
		for _, s := range spans {
			// Counting sort of pts[s.lo:s.hi] into k² quadrants.
			quad := func(p Point) int {
				return (p.R/half%k)*k + (p.C / half % k)
			}
			var cnt [64]int // kk <= 64 supported for build
			if t.kk > 64 {
				panic("k2tree: k too large")
			}
			for i := s.lo; i < s.hi; i++ {
				cnt[quad(pts[i])]++
			}
			start := make([]int, t.kk+1)
			for q := 0; q < t.kk; q++ {
				start[q+1] = start[q] + cnt[q]
			}
			fill := append([]int(nil), start[:t.kk]...)
			for i := s.lo; i < s.hi; i++ {
				q := quad(pts[i])
				buf[s.lo+fill[q]] = pts[i]
				fill[q]++
			}
			copy(pts[s.lo:s.hi], buf[s.lo:s.hi])
			for q := 0; q < t.kk; q++ {
				nonEmpty := cnt[q] > 0
				if leaf {
					t.L.Append(nonEmpty)
				} else {
					t.T.Append(nonEmpty)
					if nonEmpty {
						next = append(next, span{s.lo + start[q], s.lo + start[q] + cnt[q]})
					}
				}
			}
		}
		spans = next
	}
	t.T.BuildRank()
	return t
}

// bit reads position idx of the conceptual bitmap T·L. Out-of-range
// positions read as zero, which makes traversal of corrupt
// (deserialized) trees safe: a missing child simply looks empty.
func (t *Tree) bit(idx int) bool {
	if idx < t.T.Len() {
		return t.T.Get(idx)
	}
	idx -= t.T.Len()
	if idx >= t.L.Len() {
		return false
	}
	return t.L.Get(idx)
}

// childBase returns the index of the first child bit of the internal
// node whose bit sits at idx (which must be 1 and inside T).
func (t *Tree) childBase(idx int) int {
	return (t.T.Rank1(idx) + 1) * t.kk
}

// canDescend reports whether idx is a valid internal-node position.
// On well-formed trees every 1 bit above the leaf level lies in T;
// corrupt deserialized trees may violate this, and the traversals
// treat such positions as empty rather than reading out of range.
func (t *Tree) canDescend(idx int) bool { return idx < t.T.Len() }

// Get reports whether cell (r, c) is set.
func (t *Tree) Get(r, c int) bool {
	if r < 0 || c < 0 || r >= t.Rows || c >= t.Cols {
		return false
	}
	size := t.Size / t.K
	pos := 0
	for {
		q := (r/size)*t.K + c/size
		idx := pos + q
		if !t.bit(idx) {
			return false
		}
		if size == 1 {
			return true
		}
		if !t.canDescend(idx) {
			return false
		}
		pos = t.childBase(idx)
		r %= size
		c %= size
		size /= t.K
	}
}

// RowNeighbors returns the sorted columns set in row r ("direct
// neighbors" when the matrix is an adjacency matrix).
func (t *Tree) RowNeighbors(r int) []int {
	if r < 0 || r >= t.Rows {
		return nil
	}
	var out []int
	t.rowRec(t.Size/t.K, 0, r, 0, &out)
	return out
}

func (t *Tree) rowRec(size, pos, r, colOff int, out *[]int) {
	rowQ := r / size
	for j := 0; j < t.K; j++ {
		idx := pos + rowQ*t.K + j
		if !t.bit(idx) {
			continue
		}
		if size == 1 {
			if c := colOff + j; c < t.Cols {
				*out = append(*out, c)
			}
			continue
		}
		if !t.canDescend(idx) {
			continue
		}
		t.rowRec(size/t.K, t.childBase(idx), r%size, colOff+j*size, out)
	}
}

// ColNeighbors returns the sorted rows set in column c ("reverse
// neighbors").
func (t *Tree) ColNeighbors(c int) []int {
	if c < 0 || c >= t.Cols {
		return nil
	}
	var out []int
	t.colRec(t.Size/t.K, 0, c, 0, &out)
	return out
}

func (t *Tree) colRec(size, pos, c, rowOff int, out *[]int) {
	colQ := c / size
	for i := 0; i < t.K; i++ {
		idx := pos + i*t.K + colQ
		if !t.bit(idx) {
			continue
		}
		if size == 1 {
			if r := rowOff + i; r < t.Rows {
				*out = append(*out, r)
			}
			continue
		}
		if !t.canDescend(idx) {
			continue
		}
		t.colRec(size/t.K, t.childBase(idx), c%size, rowOff+i*size, out)
	}
}

// Points returns all set cells, sorted by (row, column).
func (t *Tree) Points() []Point {
	var out []Point
	if t.L.Len() == 0 && t.T.Len() == 0 {
		return out
	}
	t.pointsRec(t.Size/t.K, 0, 0, 0, &out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].C < out[j].C
	})
	return out
}

func (t *Tree) pointsRec(size, pos, rowOff, colOff int, out *[]Point) {
	for q := 0; q < t.kk; q++ {
		idx := pos + q
		if !t.bit(idx) {
			continue
		}
		r := rowOff + q/t.K*size
		c := colOff + q%t.K*size
		if size == 1 {
			if r < t.Rows && c < t.Cols {
				*out = append(*out, Point{r, c})
			}
			continue
		}
		if !t.canDescend(idx) {
			continue
		}
		t.pointsRec(size/t.K, t.childBase(idx), r, c, out)
	}
}

// BitLen returns the payload size in bits (|T| + |L|), the measure the
// paper's bpe numbers are built from.
func (t *Tree) BitLen() int { return t.T.Len() + t.L.Len() }

// EncodeTo serializes the tree into a bit stream: δ-coded dimensions
// and bitmap lengths followed by the raw T and L bits.
func (t *Tree) EncodeTo(w *bitio.Writer) {
	w.WriteDelta(uint64(t.K))
	w.WriteDelta(uint64(t.Rows))
	w.WriteDelta(uint64(t.Cols))
	w.WriteDelta0(uint64(t.T.Len()))
	w.WriteDelta0(uint64(t.L.Len()))
	for i := 0; i < t.T.Len(); i++ {
		w.WriteBool(t.T.Get(i))
	}
	for i := 0; i < t.L.Len(); i++ {
		w.WriteBool(t.L.Get(i))
	}
}

// DecodeFrom reads a tree serialized by EncodeTo.
func DecodeFrom(r *bitio.Reader) (*Tree, error) {
	k64, err := r.ReadDelta()
	if err != nil {
		return nil, err
	}
	rows, err := r.ReadDelta()
	if err != nil {
		return nil, err
	}
	cols, err := r.ReadDelta()
	if err != nil {
		return nil, err
	}
	tn, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	ln, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	k := int(k64)
	if k < 2 || k > 8 {
		return nil, fmt.Errorf("k2tree: decoded k = %d out of range", k)
	}
	if rows > 1<<31 || cols > 1<<31 || tn > uint64(r.Remaining()) || ln > uint64(r.Remaining()) {
		return nil, fmt.Errorf("k2tree: decoded sizes implausible (%d x %d, %d+%d bits)", rows, cols, tn, ln)
	}
	t := &Tree{K: k, Rows: int(rows), Cols: int(cols), kk: k * k,
		T: bitio.NewVector(0), L: bitio.NewVector(0)}
	t.Size = k
	for t.Size < t.Rows || t.Size < t.Cols {
		t.Size *= k
	}
	for i := 0; i < int(tn); i++ {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		t.T.Append(b)
	}
	for i := 0; i < int(ln); i++ {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		t.L.Append(b)
	}
	t.T.BuildRank()
	return t, nil
}
