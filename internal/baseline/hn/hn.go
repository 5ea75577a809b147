// Package hn implements the dense-substructure compressor of
// Hernández & Navarro ("Compressed representations for web and social
// graphs"), which combines the virtual-node mining of Buehrer &
// Chellapilla with k²-trees — the strongest baseline in Fig. 12 of
// "Compressing Graphs by Grammars".
//
// Mining finds bicliques (S, T): every node of S points to every node
// of T. Each biclique is contracted by introducing a virtual node w,
// replacing the |S|·|T| edges with |S| + |T| edges S→w→T. After P
// mining passes the residual graph (original plus virtual nodes) is
// encoded as a k²-tree.
//
// Our clustering sorts nodes by a fingerprint of their out-neighbor
// sets and extracts common subsets from runs of similar nodes, rather
// than the original shingle hashing (DESIGN.md §5); the parameters
// keep the roles of the paper's T (minimum cluster size to consider),
// P (passes) and ES (minimum edge saving).
package hn

import (
	"fmt"
	"sort"

	"graphrepair/internal/baseline/k2"
	"graphrepair/internal/hypergraph"
)

// Params configure the miner. DefaultParams matches the configuration
// the paper reports as best (T = 10, P = 2, ES = 10).
type Params struct {
	T  int // minimum number of edges in a biclique worth considering
	P  int // mining passes
	ES int // minimum edge saving |S|·|T| − (|S|+|T|)
}

// DefaultParams returns the paper's parameters.
func DefaultParams() Params { return Params{T: 10, P: 2, ES: 10} }

// Transformed is the virtual-node form of a graph: nodes 1..Original
// are input nodes, nodes Original+1..NumNodes are virtual.
type Transformed struct {
	Graph    *hypergraph.Graph
	Original int // number of original nodes
	Mined    int // bicliques contracted
}

// Transform mines bicliques and contracts them with virtual nodes.
// Edge labels are ignored (the method is defined for unlabeled
// graphs); the result uses label 1 throughout.
func Transform(g *hypergraph.Graph, p Params) (*Transformed, error) {
	n := int(g.MaxNodeID())
	adj := make(map[hypergraph.NodeID][]hypergraph.NodeID, n)
	for id := range g.EdgesSeq() {
		att := g.Att(id)
		if len(att) != 2 {
			return nil, fmt.Errorf("hn: edge %d has rank %d; only simple graphs supported", id, len(att))
		}
		adj[att[0]] = append(adj[att[0]], att[1])
	}
	for v := range adj {
		lst := adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		adj[v] = dedup(lst)
	}

	next := hypergraph.NodeID(n) // last allocated node
	mined := 0
	for pass := 0; pass < p.P; pass++ {
		groups := clusterByOutSet(adj)
		groups = append(groups, clusterByMinHash(adj)...)
		changed := false
		for _, grp := range groups {
			if len(grp) < 2 {
				continue
			}
			// Greedy common out-subset: grow the source set while the
			// running intersection stays worthwhile (the original
			// paper's cluster mining, simplified).
			common := intersect(adj[grp[0]], adj[grp[1]])
			members := grp[:2:2]
			for _, v := range grp[2:] {
				nc := intersect(common, adj[v])
				if len(nc) < 2 {
					continue
				}
				common = nc
				members = append(members, v)
			}
			grp = members
			s, t := len(grp), len(common)
			if s < 2 || s*t < p.T || s*t-(s+t) < p.ES {
				continue
			}
			// Contract: remove S×T edges, add S→w and w→T.
			next++
			w := next
			adj[w] = append([]hypergraph.NodeID(nil), common...)
			for _, v := range grp {
				adj[v] = append(subtract(adj[v], common), w)
				sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
			}
			mined++
			changed = true
		}
		if !changed {
			break
		}
	}

	out := hypergraph.New(int(next))
	for v, lst := range adj {
		for _, u := range lst {
			out.AddEdge(1, v, u)
		}
	}
	return &Transformed{Graph: out, Original: n, Mined: mined}, nil
}

// clusterByOutSet groups nodes with identical out-neighbor sets
// (deterministic order). Identical sets are the strongest biclique
// signal; near-identical sets are captured across passes because the
// residual lists shrink toward equality once shared parts contract.
func clusterByOutSet(adj map[hypergraph.NodeID][]hypergraph.NodeID) [][]hypergraph.NodeID {
	keys := map[string][]hypergraph.NodeID{}
	var order []string
	for _, v := range sortedKeys(adj) {
		lst := adj[v]
		if len(lst) < 2 {
			continue
		}
		k := fingerprint(lst)
		if _, ok := keys[k]; !ok {
			order = append(order, k)
		}
		keys[k] = append(keys[k], v)
	}
	out := make([][]hypergraph.NodeID, 0, len(order))
	for _, k := range order {
		out = append(out, keys[k])
	}
	return out
}

// clusterByMinHash groups nodes whose out-sets share the same
// minimum-hash neighbor — the one-shingle clustering of Buehrer &
// Chellapilla. Unlike exact-duplicate grouping it catches bicliques
// whose sources also have private edges.
func clusterByMinHash(adj map[hypergraph.NodeID][]hypergraph.NodeID) [][]hypergraph.NodeID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := func(v hypergraph.NodeID) uint64 {
		h := uint64(offset64)
		x := uint64(uint32(v))
		for i := 0; i < 4; i++ {
			h = (h ^ (x & 0xFF)) * prime64
			x >>= 8
		}
		return h
	}
	buckets := map[uint64][]hypergraph.NodeID{}
	var order []uint64
	for _, v := range sortedKeys(adj) {
		lst := adj[v]
		if len(lst) < 2 {
			continue
		}
		best := ^uint64(0)
		for _, u := range lst {
			if h := hash(u); h < best {
				best = h
			}
		}
		if _, ok := buckets[best]; !ok {
			order = append(order, best)
		}
		buckets[best] = append(buckets[best], v)
	}
	var out [][]hypergraph.NodeID
	for _, k := range order {
		if grp := buckets[k]; len(grp) >= 2 {
			// Cap group size so one pass stays near-linear.
			if len(grp) > 64 {
				grp = grp[:64]
			}
			out = append(out, grp)
		}
	}
	return out
}

func sortedKeys(adj map[hypergraph.NodeID][]hypergraph.NodeID) []hypergraph.NodeID {
	out := make([]hypergraph.NodeID, 0, len(adj))
	for v := range adj {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func fingerprint(lst []hypergraph.NodeID) string {
	b := make([]byte, 0, 4*len(lst))
	for _, v := range lst {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func dedup(sorted []hypergraph.NodeID) []hypergraph.NodeID {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func intersect(a, b []hypergraph.NodeID) []hypergraph.NodeID {
	var out []hypergraph.NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func subtract(a, b []hypergraph.NodeID) []hypergraph.NodeID {
	var out []hypergraph.NodeID
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Expand undoes the virtual-node transformation: every length-2 path
// through a virtual node becomes a direct edge, virtual nodes are
// dropped. Chains of virtual nodes (from later passes contracting
// virtual edges) are followed transitively.
func Expand(t *Transformed) *hypergraph.Graph {
	g := t.Graph
	out := hypergraph.New(t.Original)
	var expandTargets func(v hypergraph.NodeID, visit map[hypergraph.NodeID]bool) []hypergraph.NodeID
	expandTargets = func(v hypergraph.NodeID, visit map[hypergraph.NodeID]bool) []hypergraph.NodeID {
		if int(v) <= t.Original {
			return []hypergraph.NodeID{v}
		}
		if visit[v] {
			return nil
		}
		visit[v] = true
		var res []hypergraph.NodeID
		for _, u := range g.OutNeighbors(v) {
			res = append(res, expandTargets(u, visit)...)
		}
		return res
	}
	seen := map[[2]hypergraph.NodeID]bool{}
	for id := range g.EdgesSeq() {
		att := g.Att(id)
		src := att[0]
		if int(src) > t.Original {
			continue // virtual source handled via its in-edges
		}
		for _, dst := range expandTargets(att[1], map[hypergraph.NodeID]bool{}) {
			k := [2]hypergraph.NodeID{src, dst}
			if !seen[k] {
				seen[k] = true
				out.AddEdge(1, src, dst)
			}
		}
	}
	return out
}

// Compressed is the final HN representation: the k²-tree of the
// transformed graph.
type Compressed struct {
	K2       *k2.Compressed
	Original int
}

// Compress runs Transform then encodes with a k²-tree.
func Compress(g *hypergraph.Graph, p Params) (*Compressed, *Transformed, error) {
	tr, err := Transform(g, p)
	if err != nil {
		return nil, nil, err
	}
	kc, err := k2.Compress(tr.Graph)
	if err != nil {
		return nil, nil, err
	}
	return &Compressed{K2: kc, Original: tr.Original}, tr, nil
}

// SizeBits returns the payload size in bits.
func (c *Compressed) SizeBits() int { return c.K2.SizeBits() }

// SizeBytes returns the payload size in bytes.
func (c *Compressed) SizeBytes() int { return c.K2.SizeBytes() }

// OutNeighbors answers an out-neighbor query on the compressed form,
// expanding virtual nodes transitively.
func (c *Compressed) OutNeighbors(v hypergraph.NodeID) []hypergraph.NodeID {
	var res []hypergraph.NodeID
	var walk func(u hypergraph.NodeID, visit map[hypergraph.NodeID]bool)
	walk = func(u hypergraph.NodeID, visit map[hypergraph.NodeID]bool) {
		for _, w := range c.K2.OutNeighbors(u) {
			if int(w) <= c.Original {
				res = append(res, w)
			} else if !visit[w] {
				visit[w] = true
				walk(w, visit)
			}
		}
	}
	walk(v, map[hypergraph.NodeID]bool{})
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	return dedup(res)
}
