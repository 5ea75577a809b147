// Package encoding implements the binary grammar format of
// "Compressing Graphs by Grammars" Sec. III-C2.
//
// The start graph and the productions are encoded differently:
//
//   - The start graph is split by edge label. Rank-2 labels become
//     adjacency matrices, other ranks incidence matrices (node rows ×
//     edge columns); every matrix is stored as a k²-tree with k = 2.
//     Because an incidence matrix only records the set of attached
//     nodes, a per-edge permutation (drawn from a dictionary of the
//     distinct permutations appearing, indexed with ⌈log n⌉-bit codes)
//     recovers the attachment order.
//
//   - Productions are expected to be tiny graphs and are stored as
//     δ-coded edge lists: per rule the node/external/edge counts, then
//     per edge a terminal bit, the attachment count, the attachment
//     node IDs each preceded by an external-flag bit, and the label.
//
// Encode canonicalizes the grammar in place (rule nodes are renumbered
// so external nodes are exactly 1..rank in external order), which
// makes the encoder-side and decoder-side val(G) identical graphs, not
// merely isomorphic ones.
package encoding

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"graphrepair/internal/bitio"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/k2tree"
)

// magic identifies the file format and version guards compatibility.
// Encode writes version 1. The decoder also accepts legacyVersion, a
// read-only alias of 1 with an identical payload: builds that had a
// second (since removed) compression mode tagged its archives with it.
// Any other version is rejected as unsupported (classified ErrCorrupt
// by DecodeContext).
const (
	magic         = 0x47525052 // "GRPR"
	version       = 1
	legacyVersion = 2
)

// maxDecodeNodes caps the start-graph node count the decoder accepts.
// k²-trees make the encoding sublinear in the node count, so the
// claimed count cannot be validated against the input length; without
// a cap a short corrupt file can demand a multi-terabyte graph
// allocation before any edge is read (found by FuzzDecode). 16M nodes
// is an order of magnitude above the paper's largest dataset while
// bounding the up-front allocation to a few hundred MB. This is a
// shared encoder/decoder policy, not a format version change: Encode
// enforces the same cap, so every file this version writes decodes.
const maxDecodeNodes = 1 << 24

// Sizes breaks an encoded grammar down by section, in bits. The paper
// reports that typically >90% of the output is the start graph's
// k²-trees.
type Sizes struct {
	Header     int
	Rules      int
	StartGraph int
}

// Total returns the total payload size in bits.
func (s Sizes) Total() int { return s.Header + s.Rules + s.StartGraph }

// TotalBytes returns the size in whole bytes (what a file would take).
func (s Sizes) TotalBytes() int { return (s.Total() + 7) / 8 }

// Encode serializes a grammar. The grammar is canonicalized in place
// (see package comment); the start graph must already be compact
// (nodes 1..n), which core.Compress guarantees.
func Encode(g *grammar.Grammar) ([]byte, Sizes, error) {
	if err := g.Validate(); err != nil {
		return nil, Sizes{}, fmt.Errorf("encoding: invalid grammar: %w", err)
	}
	if int(g.Start.MaxNodeID()) != g.Start.NumNodes() {
		return nil, Sizes{}, errors.New("encoding: start graph is not compact")
	}
	// Mirror the decoder's node cap so an oversized graph fails at
	// write time instead of producing a file Decode will reject.
	if g.Start.NumNodes() > maxDecodeNodes {
		return nil, Sizes{}, fmt.Errorf("encoding: start graph has %d nodes, format cap is %d",
			g.Start.NumNodes(), maxDecodeNodes)
	}
	Normalize(g)

	w := bitio.NewWriter()
	w.WriteBits(magic, 32)
	w.WriteBits(version, 8)
	w.WriteDelta0(uint64(g.Terminals))
	w.WriteDelta0(uint64(g.NumRules()))
	var sz Sizes
	sz.Header = w.Len()

	for _, nt := range g.Nonterminals() {
		encodeRule(w, g, g.Rule(nt))
	}
	sz.Rules = w.Len() - sz.Header

	if err := encodeStart(w, g); err != nil {
		return nil, Sizes{}, err
	}
	sz.StartGraph = w.Len() - sz.Header - sz.Rules
	return w.Bytes(), sz, nil
}

// Normalize renumbers every rule's nodes so the external nodes are
// exactly 1..rank in external order and internal nodes follow in
// ascending old-ID order. Idempotent; preserves the derived graph up
// to the deterministic numbering both encoder and decoder share.
func Normalize(g *grammar.Grammar) {
	for _, nt := range g.Nonterminals() {
		rhs := g.Rule(nt)
		remap := make(map[hypergraph.NodeID]hypergraph.NodeID, rhs.NumNodes())
		next := hypergraph.NodeID(1)
		for _, v := range rhs.Ext() {
			remap[v] = next
			next++
		}
		for _, v := range rhs.Nodes() {
			if !rhs.IsExternal(v) {
				remap[v] = next
				next++
			}
		}
		fresh := hypergraph.New(rhs.NumNodes())
		for id := range rhs.EdgesSeq() {
			src := rhs.Att(id)
			att := make([]hypergraph.NodeID, len(src))
			for i, v := range src {
				att[i] = remap[v]
			}
			fresh.AddEdge(rhs.Label(id), att...)
		}
		ext := make([]hypergraph.NodeID, rhs.Rank())
		for i := range ext {
			ext[i] = hypergraph.NodeID(i + 1)
		}
		fresh.SetExt(ext...)
		g.SetRule(nt, fresh)
	}
}

// encodeRule writes one production in the paper's δ-coded edge-list
// format, extended with explicit node and external counts so rules
// with isolated nodes survive the roundtrip.
func encodeRule(w *bitio.Writer, g *grammar.Grammar, rhs *hypergraph.Graph) {
	w.WriteDelta(uint64(rhs.NumNodes()))
	w.WriteDelta(uint64(rhs.Rank()))
	w.WriteDelta0(uint64(rhs.NumEdges()))
	for id := range rhs.EdgesSeq() {
		lab := rhs.Label(id)
		att := rhs.Att(id)
		terminal := g.IsTerminal(lab)
		w.WriteBool(!terminal) // 0 = terminal, as in the paper's example
		w.WriteDelta(uint64(len(att)))
		for _, v := range att {
			w.WriteBool(rhs.IsExternal(v)) // external marker bit
			w.WriteDelta(uint64(v))
		}
		if terminal {
			w.WriteDelta(uint64(lab))
		} else {
			w.WriteDelta(uint64(lab - g.Terminals))
		}
	}
}

// encodeStart writes the start graph: node count, then per label the
// k²-tree of its adjacency or incidence matrix.
func encodeStart(w *bitio.Writer, g *grammar.Grammar) error {
	s := g.Start
	n := s.NumNodes()
	w.WriteDelta0(uint64(n))

	labels := s.Labels()
	w.WriteDelta0(uint64(len(labels)))
	for _, lab := range labels {
		w.WriteDelta(uint64(lab))
		rank := g.RankOf(lab)
		w.WriteDelta(uint64(rank))

		// Collect this label's edges in ascending edge-ID order.
		var edges []hypergraph.EdgeID
		for id := range s.EdgesSeq() {
			if s.Label(id) == lab {
				edges = append(edges, id)
			}
		}
		if rank == 2 {
			pts := make([]k2tree.Point, len(edges))
			for i, id := range edges {
				att := s.Att(id)
				pts[i] = k2tree.Point{R: int(att[0]) - 1, C: int(att[1]) - 1}
			}
			k2tree.Build(n, n, pts, k2tree.DefaultK).EncodeTo(w)
			continue
		}

		// Incidence matrix: one column per edge.
		w.WriteDelta0(uint64(len(edges)))
		var pts []k2tree.Point
		perms := make([][]int, len(edges))
		for col, id := range edges {
			att := s.Att(id)
			sorted := append([]hypergraph.NodeID(nil), att...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			perm := make([]int, len(att))
			for i, v := range att {
				perm[i] = sort.Search(len(sorted), func(j int) bool { return sorted[j] >= v })
				pts = append(pts, k2tree.Point{R: int(v) - 1, C: col})
			}
			perms[col] = perm
		}
		k2tree.Build(n, len(edges), pts, k2tree.DefaultK).EncodeTo(w)
		encodePermutations(w, perms, rank)
	}
	return nil
}

// encodePermutations writes the permutation dictionary and the
// fixed-width per-edge indices (Sec. III-C2).
func encodePermutations(w *bitio.Writer, perms [][]int, rank int) {
	dict := map[string]int{}
	var order [][]int
	idx := make([]int, len(perms))
	for i, p := range perms {
		k := permKey(p)
		j, ok := dict[k]
		if !ok {
			j = len(order)
			dict[k] = j
			order = append(order, p)
		}
		idx[i] = j
	}
	w.WriteDelta0(uint64(len(order)))
	elemBits := bits.Len(uint(rank - 1)) // width to store 0..rank-1
	for _, p := range order {
		for _, e := range p {
			w.WriteBits(uint64(e), elemBits)
		}
	}
	idxBits := 0
	if len(order) > 1 {
		idxBits = bits.Len(uint(len(order) - 1))
	}
	for _, j := range idx {
		w.WriteBits(uint64(j), idxBits)
	}
}

func permKey(p []int) string {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = byte(v)
	}
	return string(b)
}

// Estimated heap bytes per decoded node and edge, charged against the
// allocation budget BEFORE the corresponding tables grow. The numbers
// approximate the hypergraph arenas (per node: incidence head + alive
// bit + ID bookkeeping; per edge: label, attachment span, incidence
// links); exactness does not matter — the budget defends against
// orders-of-magnitude amplification, not byte-level accounting.
const (
	nodeCostBytes = 48
	edgeCostBytes = 64
)

// Decode parses a grammar encoded by Encode, sealed or plain, with no
// limits and no cancellation; it is DecodeContext with a background
// context.
func Decode(buf []byte) (*grammar.Grammar, error) {
	return DecodeContext(context.Background(), buf, govern.Limits{})
}

// DecodeContext is the one reader of archive bytes. A sealed archive
// (IsSealed) is verified by Unseal, every CRC and the exact length,
// before the decoder sees a byte of its payload; a plain archive is
// decoded as is. Decoding runs under resource governance:
// lim.MaxAllocBytes bounds the estimated bytes the decoder may
// allocate (charged from the claimed counts before each table grows,
// so a short file claiming millions of nodes is rejected before the
// allocation happens, not after), and ctx is polled between rules and
// between start-graph labels. Every failure is classified under the
// govern taxonomy: corrupt input wraps govern.ErrCorrupt, budget
// overruns wrap govern.ErrLimit, cancellation wraps govern.ErrCanceled.
func DecodeContext(ctx context.Context, buf []byte, lim govern.Limits) (*grammar.Grammar, error) {
	if IsSealed(buf) {
		payload, err := Unseal(buf)
		if err != nil {
			return nil, err
		}
		buf = payload
	}
	g, err := decode(ctx, buf, lim)
	if err != nil {
		return nil, govern.Corrupt(err)
	}
	return g, nil
}

func decode(ctx context.Context, buf []byte, lim govern.Limits) (*grammar.Grammar, error) {
	r := bitio.NewReader(buf)
	b := govern.NewBudget(lim.MaxAllocBytes)
	bud := &b
	m, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("encoding: bad magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("encoding: bad magic")
	}
	v, err := r.ReadBits(8)
	if err != nil {
		return nil, fmt.Errorf("encoding: bad version: %w", err)
	}
	if v != version && v != legacyVersion {
		return nil, fmt.Errorf("encoding: unsupported version %d", v)
	}
	terms, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	nRules, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	// Plausibility caps: every rule costs at least a few bits, so the
	// claimed counts cannot exceed the remaining input (guards
	// allocation on corrupt files).
	if terms > 1<<31 || nRules > uint64(r.Remaining()) {
		return nil, fmt.Errorf("encoding: implausible header (terms %d, rules %d)", terms, nRules)
	}
	g := grammar.New(hypergraph.Label(terms), nil)
	for i := uint64(0); i < nRules; i++ {
		if err := govern.Checkpoint(ctx, "encoding: decode rules"); err != nil {
			return nil, err
		}
		rhs, err := decodeRule(r, g, bud)
		if err != nil {
			return nil, fmt.Errorf("encoding: rule %d: %w", i, err)
		}
		g.AddRule(rhs)
	}
	if err := decodeStart(ctx, r, g, bud); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("encoding: decoded grammar invalid: %w", err)
	}
	return g, nil
}

func decodeRule(r *bitio.Reader, g *grammar.Grammar, bud *govern.Budget) (*hypergraph.Graph, error) {
	nNodes, err := r.ReadDelta()
	if err != nil {
		return nil, err
	}
	rank, err := r.ReadDelta()
	if err != nil {
		return nil, err
	}
	nEdges, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	if rank > nNodes {
		return nil, fmt.Errorf("rank %d exceeds node count %d", rank, nNodes)
	}
	if nNodes > uint64(r.Remaining())+64 || nEdges > uint64(r.Remaining()) {
		return nil, fmt.Errorf("implausible rule sizes (%d nodes, %d edges)", nNodes, nEdges)
	}
	if err := bud.Charge(govern.SatAdd(
		govern.SatMul(int64(nNodes), nodeCostBytes),
		govern.SatMul(int64(nEdges), edgeCostBytes))); err != nil {
		return nil, err
	}
	rhs := hypergraph.New(int(nNodes))
	for e := uint64(0); e < nEdges; e++ {
		nonterminal, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		nAtt, err := r.ReadDelta()
		if err != nil {
			return nil, err
		}
		// Attachment nodes are pairwise distinct, so more of them than
		// rule nodes cannot decode; checking before the allocation
		// keeps corrupt counts from forcing huge buffers.
		if nAtt > nNodes {
			return nil, fmt.Errorf("edge attaches %d nodes, rule has %d", nAtt, nNodes)
		}
		att := make([]hypergraph.NodeID, nAtt)
		for i := range att {
			extBit, err := r.ReadBool()
			if err != nil {
				return nil, err
			}
			id, err := r.ReadDelta()
			if err != nil {
				return nil, err
			}
			if id > nNodes {
				return nil, fmt.Errorf("node %d out of range", id)
			}
			if wantExt := id <= rank; extBit != wantExt {
				return nil, fmt.Errorf("external flag inconsistent for node %d", id)
			}
			for j := 0; j < i; j++ {
				if att[j] == hypergraph.NodeID(id) {
					return nil, fmt.Errorf("node %d attached twice", id)
				}
			}
			att[i] = hypergraph.NodeID(id)
		}
		lab, err := r.ReadDelta()
		if err != nil {
			return nil, err
		}
		label := hypergraph.Label(lab)
		if nonterminal {
			label += g.Terminals
		} else if label > g.Terminals {
			return nil, fmt.Errorf("terminal label %d out of range", label)
		}
		rhs.AddEdge(label, att...)
	}
	ext := make([]hypergraph.NodeID, rank)
	for i := range ext {
		ext[i] = hypergraph.NodeID(i + 1)
	}
	rhs.SetExt(ext...)
	return rhs, nil
}

func decodeStart(ctx context.Context, r *bitio.Reader, g *grammar.Grammar, bud *govern.Budget) error {
	n, err := r.ReadDelta0()
	if err != nil {
		return err
	}
	if n > maxDecodeNodes {
		return fmt.Errorf("encoding: implausible start-graph node count %d", n)
	}
	// The k²-trees are sublinear in the node count, so this claimed
	// count is the one allocation the input length cannot bound — the
	// budget is the only defense below maxDecodeNodes.
	if err := bud.Charge(govern.SatMul(int64(n), nodeCostBytes)); err != nil {
		return err
	}
	s := hypergraph.New(int(n))
	nLabels, err := r.ReadDelta0()
	if err != nil {
		return err
	}
	if nLabels > uint64(r.Remaining()) {
		return fmt.Errorf("encoding: implausible label count %d", nLabels)
	}
	for i := uint64(0); i < nLabels; i++ {
		if err := govern.Checkpoint(ctx, "encoding: decode start graph"); err != nil {
			return err
		}
		lab64, err := r.ReadDelta()
		if err != nil {
			return err
		}
		lab := hypergraph.Label(lab64)
		rank, err := r.ReadDelta()
		if err != nil {
			return err
		}
		// Incidence columns hold rank pairwise-distinct rows, so a rank
		// beyond the node count cannot decode; rejecting it here also
		// bounds the per-permutation allocations below.
		if rank != 2 && (rank < 1 || rank > n) {
			return fmt.Errorf("encoding: implausible rank %d for label %d over %d nodes", rank, lab, n)
		}
		if rank == 2 {
			tr, err := k2tree.DecodeFrom(r)
			if err != nil {
				return err
			}
			// The tree's bitmaps are input-bounded; the points it expands
			// to become edges, so charge them at edge cost up front.
			pts := tr.Points()
			if err := bud.Charge(govern.SatAdd(int64(tr.BitLen()/8),
				govern.SatMul(int64(len(pts)), edgeCostBytes))); err != nil {
				return err
			}
			for _, p := range pts {
				if uint64(p.R) >= n || uint64(p.C) >= n {
					return fmt.Errorf("encoding: label %d: cell (%d,%d) outside %d nodes", lab, p.R, p.C, n)
				}
				if p.R == p.C {
					return fmt.Errorf("encoding: label %d: self-loop cell %d", lab, p.R)
				}
				s.AddEdge(lab, hypergraph.NodeID(p.R+1), hypergraph.NodeID(p.C+1))
			}
			continue
		}
		nEdges, err := r.ReadDelta0()
		if err != nil {
			return err
		}
		if nEdges > uint64(r.Remaining()) {
			return fmt.Errorf("encoding: implausible edge count %d for label %d", nEdges, lab)
		}
		tr, err := k2tree.DecodeFrom(r)
		if err != nil {
			return err
		}
		pts := tr.Points()
		if err := bud.Charge(govern.SatAdd(int64(tr.BitLen()/8), govern.SatAdd(
			govern.SatMul(int64(nEdges), edgeCostBytes),
			govern.SatMul(int64(len(pts)), 8)))); err != nil {
			return err
		}
		// Rows attached per column, ascending (= sorted attachment).
		cols := make([][]hypergraph.NodeID, nEdges)
		for _, p := range pts {
			if uint64(p.C) >= nEdges || uint64(p.R) >= n {
				return fmt.Errorf("encoding: label %d: incidence cell (%d,%d) out of range", lab, p.R, p.C)
			}
			cols[p.C] = append(cols[p.C], hypergraph.NodeID(p.R+1))
		}
		perms, err := decodePermutations(r, int(nEdges), int(rank), bud)
		if err != nil {
			return err
		}
		for c, sorted := range cols {
			if len(sorted) != int(rank) {
				return fmt.Errorf("label %d column %d has %d rows, want %d", lab, c, len(sorted), rank)
			}
			att := make([]hypergraph.NodeID, rank)
			for i, pi := range perms[c] {
				att[i] = sorted[pi]
			}
			s.AddEdge(lab, att...)
		}
	}
	g.Start = s
	return nil
}

func decodePermutations(r *bitio.Reader, nEdges, rank int, bud *govern.Budget) ([][]int, error) {
	nPerms, err := r.ReadDelta0()
	if err != nil {
		return nil, err
	}
	elemBits := bits.Len(uint(rank - 1))
	// Every dictionary entry costs rank·elemBits bits of input, and
	// rank-1 edges admit only the identity permutation; reject counts
	// the remaining input cannot hold before allocating (a corrupt
	// count OOMed here before this guard — found by FuzzDecode).
	if perBits := uint64(rank) * uint64(elemBits); perBits == 0 {
		if nPerms > 1 {
			return nil, fmt.Errorf("implausible permutation count %d for rank %d", nPerms, rank)
		}
	} else if nPerms > uint64(r.Remaining())/perBits+1 {
		return nil, fmt.Errorf("implausible permutation count %d", nPerms)
	}
	if err := bud.Charge(govern.SatAdd(
		govern.SatMul(govern.SatMul(int64(nPerms), int64(rank)), 8),
		govern.SatMul(int64(nEdges), 8))); err != nil {
		return nil, err
	}
	dict := make([][]int, nPerms)
	for i := range dict {
		p := make([]int, rank)
		seen := make([]bool, rank)
		for j := range p {
			v, err := r.ReadBits(elemBits)
			if err != nil {
				return nil, err
			}
			if int(v) >= rank || seen[v] {
				return nil, fmt.Errorf("invalid permutation element %d", v)
			}
			seen[v] = true
			p[j] = int(v)
		}
		dict[i] = p
	}
	idxBits := 0
	if nPerms > 1 {
		idxBits = bits.Len(uint(nPerms - 1))
	}
	out := make([][]int, nEdges)
	for i := range out {
		j, err := r.ReadBits(idxBits)
		if err != nil {
			return nil, err
		}
		if j >= nPerms {
			return nil, fmt.Errorf("permutation index %d out of range", j)
		}
		out[i] = dict[j]
	}
	return out, nil
}
