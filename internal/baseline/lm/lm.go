// Package lm implements the "list merge" (LM) web-graph compressor of
// Grabowski & Bieniecki ("Tight and simple web graph compression for
// forward and reverse neighbor queries"), one of the baselines of
// "Compressing Graphs by Grammars" Fig. 12 / Table VI.
//
// The scheme processes the adjacency lists of h consecutive nodes
// (h = 64 in the paper's and our experiments) as one chunk: the h
// sorted lists are merged into a single ascending union list, and
// every union element carries an h-bit membership mask saying which of
// the chunk's lists contain it. The stream of δ-coded union gaps and
// bit-packed masks is then compressed with DEFLATE (the paper uses
// gzip; stdlib flate emits the same stream without the gzip header —
// see DESIGN.md §5). Out-neighbor queries decode one chunk.
//
// LM handles unlabeled directed graphs (the paper does not extend it
// to RDF; our benchmarks follow that).
package lm

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"graphrepair/internal/bitio"
	"graphrepair/internal/hypergraph"
)

// DefaultChunkSize is the paper's chunk-size parameter.
const DefaultChunkSize = 64

// Compressed is an LM-compressed graph.
type Compressed struct {
	NumNodes  int
	ChunkSize int
	payload   []byte // DEFLATE stream of all chunks

	// decoded caches the inflated adjacency on first query.
	decoded [][]hypergraph.NodeID
}

// Compress builds the LM representation of a simple directed graph.
// Edge labels are ignored (LM is an unlabeled-graph method).
func Compress(g *hypergraph.Graph, chunkSize int) (*Compressed, error) {
	if chunkSize < 1 {
		return nil, fmt.Errorf("lm: chunk size %d out of range", chunkSize)
	}
	n := int(g.MaxNodeID())
	adj := make([][]hypergraph.NodeID, n+1)
	for id := range g.EdgesSeq() {
		att := g.Att(id)
		if len(att) != 2 {
			return nil, fmt.Errorf("lm: edge %d has rank %d; only simple graphs supported", id, len(att))
		}
		adj[att[0]] = append(adj[att[0]], att[1])
	}

	w := bitio.NewWriter()
	for base := 1; base <= n; base += chunkSize {
		hi := base + chunkSize
		if hi > n+1 {
			hi = n + 1
		}
		encodeChunk(w, adj[base:hi], hi-base)
	}
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(w.Bytes()); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return &Compressed{NumNodes: n, ChunkSize: chunkSize, payload: buf.Bytes()}, nil
}

// encodeChunk merges h sorted lists into a union with membership
// masks: δ-coded union length, δ-coded gaps, then h bits per element.
func encodeChunk(w *bitio.Writer, lists [][]hypergraph.NodeID, h int) {
	member := map[hypergraph.NodeID][]int{}
	var union []hypergraph.NodeID
	for li, lst := range lists {
		// Sort and deduplicate each list.
		sorted := append([]hypergraph.NodeID(nil), lst...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		var prev hypergraph.NodeID = -1
		for _, v := range sorted {
			if v == prev {
				continue
			}
			prev = v
			if _, ok := member[v]; !ok {
				union = append(union, v)
			}
			member[v] = append(member[v], li)
		}
	}
	for i := 1; i < len(union); i++ {
		for j := i; j > 0 && union[j] < union[j-1]; j-- {
			union[j], union[j-1] = union[j-1], union[j]
		}
	}
	w.WriteDelta0(uint64(len(union)))
	prev := uint64(0)
	for _, v := range union {
		w.WriteDelta(uint64(v) - prev)
		prev = uint64(v)
	}
	for _, v := range union {
		mask := make([]bool, h)
		for _, li := range member[v] {
			mask[li] = true
		}
		for _, b := range mask {
			w.WriteBool(b)
		}
	}
}

// SizeBytes returns the compressed payload size in bytes.
func (c *Compressed) SizeBytes() int { return len(c.payload) }

// SizeBits returns the compressed payload size in bits.
func (c *Compressed) SizeBits() int { return 8 * len(c.payload) }

// inflate decodes the whole stream once and caches the adjacency.
func (c *Compressed) inflate() error {
	if c.decoded != nil {
		return nil
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(c.payload)))
	if err != nil {
		return fmt.Errorf("lm: inflate: %w", err)
	}
	r := bitio.NewReader(raw)
	c.decoded = make([][]hypergraph.NodeID, c.NumNodes+1)
	for base := 1; base <= c.NumNodes; base += c.ChunkSize {
		h := c.ChunkSize
		if base+h > c.NumNodes+1 {
			h = c.NumNodes + 1 - base
		}
		ulen, err := r.ReadDelta0()
		if err != nil {
			return err
		}
		union := make([]hypergraph.NodeID, ulen)
		prev := uint64(0)
		for i := range union {
			gap, err := r.ReadDelta()
			if err != nil {
				return err
			}
			prev += gap
			union[i] = hypergraph.NodeID(prev)
		}
		for _, v := range union {
			for li := 0; li < h; li++ {
				b, err := r.ReadBool()
				if err != nil {
					return err
				}
				if b {
					c.decoded[base+li] = append(c.decoded[base+li], v)
				}
			}
		}
	}
	return nil
}

// OutNeighbors returns the sorted successors of v.
func (c *Compressed) OutNeighbors(v hypergraph.NodeID) ([]hypergraph.NodeID, error) {
	if v < 1 || int(v) > c.NumNodes {
		return nil, fmt.Errorf("lm: node %d out of range", v)
	}
	if err := c.inflate(); err != nil {
		return nil, err
	}
	return c.decoded[v], nil
}
