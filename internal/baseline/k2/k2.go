// Package k2 is the k²-tree baseline compressor the paper compares
// against (and extends to RDF following Álvarez-García et al.): one
// adjacency matrix per edge label, each stored as a k²-tree. It
// supports out- and in-neighbor queries directly on the compressed
// form.
package k2

import (
	"fmt"
	"sort"

	"graphrepair/internal/bitio"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/k2tree"
)

// Compressed is a k²-tree representation of a simple directed
// edge-labeled graph.
type Compressed struct {
	NumNodes int
	Labels   []hypergraph.Label
	Trees    []*k2tree.Tree // parallel to Labels
}

// Compress builds the per-label k²-trees for a simple graph.
func Compress(g *hypergraph.Graph) (*Compressed, error) {
	pts := map[hypergraph.Label][]k2tree.Point{}
	for id := range g.EdgesSeq() {
		att := g.Att(id)
		if len(att) != 2 {
			return nil, fmt.Errorf("k2: edge %d has rank %d; only simple graphs supported", id, len(att))
		}
		l := g.Label(id)
		pts[l] = append(pts[l], k2tree.Point{R: int(att[0]) - 1, C: int(att[1]) - 1})
	}
	c := &Compressed{NumNodes: int(g.MaxNodeID())}
	for l := range pts {
		c.Labels = append(c.Labels, l)
	}
	sort.Slice(c.Labels, func(i, j int) bool { return c.Labels[i] < c.Labels[j] })
	for _, l := range c.Labels {
		c.Trees = append(c.Trees, k2tree.Build(c.NumNodes, c.NumNodes, pts[l], k2tree.DefaultK))
	}
	return c, nil
}

// SizeBits returns the payload size in bits (bitmaps of all trees plus
// the serialization headers), matching how bpe is reported.
func (c *Compressed) SizeBits() int {
	w := bitio.NewWriter()
	c.EncodeTo(w)
	return w.Len()
}

// SizeBytes returns the file size in bytes.
func (c *Compressed) SizeBytes() int { return (c.SizeBits() + 7) / 8 }

// EncodeTo serializes the structure into a bit stream.
func (c *Compressed) EncodeTo(w *bitio.Writer) {
	w.WriteDelta0(uint64(c.NumNodes))
	w.WriteDelta0(uint64(len(c.Labels)))
	for i, l := range c.Labels {
		w.WriteDelta(uint64(l))
		c.Trees[i].EncodeTo(w)
	}
}

// Decode parses a structure serialized with EncodeTo.
func Decode(r *bitio.Reader) (*Compressed, error) {
	n, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	nl, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	c := &Compressed{NumNodes: int(n)}
	for i := uint64(0); i < nl; i++ {
		l, err := r.ReadDelta()
		if err != nil {
			return nil, err
		}
		t, err := k2tree.DecodeFrom(r)
		if err != nil {
			return nil, err
		}
		c.Labels = append(c.Labels, hypergraph.Label(l))
		c.Trees = append(c.Trees, t)
	}
	return c, nil
}

// OutNeighbors returns the distinct successors of v over all labels,
// ascending.
func (c *Compressed) OutNeighbors(v hypergraph.NodeID) []hypergraph.NodeID {
	return c.merge(v, true)
}

// InNeighbors returns the distinct predecessors of v over all labels,
// ascending.
func (c *Compressed) InNeighbors(v hypergraph.NodeID) []hypergraph.NodeID {
	return c.merge(v, false)
}

func (c *Compressed) merge(v hypergraph.NodeID, out bool) []hypergraph.NodeID {
	seen := map[int]bool{}
	var res []hypergraph.NodeID
	for _, t := range c.Trees {
		var ns []int
		if out {
			ns = t.RowNeighbors(int(v) - 1)
		} else {
			ns = t.ColNeighbors(int(v) - 1)
		}
		for _, u := range ns {
			if !seen[u] {
				seen[u] = true
				res = append(res, hypergraph.NodeID(u+1))
			}
		}
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	return res
}

// HasEdge reports whether an edge (src, dst) with the given label
// exists.
func (c *Compressed) HasEdge(src, dst hypergraph.NodeID, label hypergraph.Label) bool {
	for i, l := range c.Labels {
		if l == label {
			return c.Trees[i].Get(int(src)-1, int(dst)-1)
		}
	}
	return false
}

// Triples reconstructs the full edge set (for tests).
func (c *Compressed) Triples() []hypergraph.Triple {
	var out []hypergraph.Triple
	for i, l := range c.Labels {
		for _, p := range c.Trees[i].Points() {
			out = append(out, hypergraph.Triple{
				Src: hypergraph.NodeID(p.R + 1), Dst: hypergraph.NodeID(p.C + 1), Label: l})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Label < b.Label
	})
	return out
}
