package main

import (
	"fmt"
	"slices"

	"graphrepair/internal/hypergraph"
)

// fingerprint is what the decompressed graph must share with the
// input: derivation renumbers nodes, so the check compares
// isomorphism invariants rather than edge lists.
type fingerprint struct {
	nodes, edges int
	labels       map[hypergraph.Label]int
	inDeg        []int // sorted ascending
	outDeg       []int // sorted ascending
}

func fingerprintOf(g *hypergraph.Graph) fingerprint {
	fp := fingerprint{nodes: g.NumNodes(), edges: g.NumEdges(), labels: make(map[hypergraph.Label]int)}
	in := make([]int, int(g.MaxNodeID())+1)
	out := make([]int, len(in))
	for _, t := range g.Triples() {
		fp.labels[t.Label]++
		out[t.Src]++
		in[t.Dst]++
	}
	for v := hypergraph.NodeID(1); v <= g.MaxNodeID(); v++ {
		if g.HasNode(v) {
			fp.inDeg = append(fp.inDeg, in[v])
			fp.outDeg = append(fp.outDeg, out[v])
		}
	}
	slices.Sort(fp.inDeg)
	slices.Sort(fp.outDeg)
	return fp
}

func (fp fingerprint) diff(got fingerprint) error {
	switch {
	case got.nodes != fp.nodes:
		return fmt.Errorf("decompressed graph has %d nodes, input %d", got.nodes, fp.nodes)
	case got.edges != fp.edges:
		return fmt.Errorf("decompressed graph has %d edges, input %d", got.edges, fp.edges)
	case len(got.labels) != len(fp.labels):
		return fmt.Errorf("decompressed graph has %d labels, input %d", len(got.labels), len(fp.labels))
	case !slices.Equal(got.inDeg, fp.inDeg):
		return fmt.Errorf("decompressed graph's in-degree sequence differs from the input's")
	case !slices.Equal(got.outDeg, fp.outDeg):
		return fmt.Errorf("decompressed graph's out-degree sequence differs from the input's")
	}
	for l, n := range fp.labels {
		if got.labels[l] != n {
			return fmt.Errorf("decompressed graph has %d edges labeled %d, input %d", got.labels[l], l, n)
		}
	}
	return nil
}

// oracle answers the benchmark's queries by plain BFS and adjacency on
// the derived graph, whose node numbering is the query engine's.
type oracle struct {
	g        *hypergraph.Graph
	out      [][]hypergraph.NodeID
	dist     []int64 // BFS scratch, -1 = unvisited
	frontier []hypergraph.NodeID
}

func newOracle(g *hypergraph.Graph) *oracle {
	o := &oracle{g: g, out: make([][]hypergraph.NodeID, int(g.MaxNodeID())+1), dist: make([]int64, int(g.MaxNodeID())+1)}
	for _, t := range g.Triples() {
		o.out[t.Src] = append(o.out[t.Src], t.Dst)
	}
	for i := range o.dist {
		o.dist[i] = -1
	}
	return o
}

// distance is the BFS distance from u to v along edge direction (the
// unit-weight case of Dijkstra), or -1 when v is unreachable.
func (o *oracle) distance(u, v int64) int64 {
	o.dist[u] = 0
	o.frontier = append(o.frontier[:0], hypergraph.NodeID(u))
	answer := int64(-1)
	for i := 0; i < len(o.frontier) && answer < 0; i++ {
		x := o.frontier[i]
		if int64(x) == v {
			answer = o.dist[x]
		}
		for _, y := range o.out[x] {
			if o.dist[y] < 0 {
				o.dist[y] = o.dist[x] + 1
				o.frontier = append(o.frontier, y)
			}
		}
	}
	for _, x := range o.frontier {
		o.dist[x] = -1
	}
	return answer
}

// neighbors lists the distinct nodes adjacent to v in either
// direction, ascending.
func (o *oracle) neighbors(v int64) []int64 {
	ns := o.g.Neighbors(hypergraph.NodeID(v))
	out := make([]int64, len(ns))
	for i, n := range ns {
		out[i] = int64(n)
	}
	return out
}

// verify checks one answered request against the oracle.
func (o *oracle) verify(r request, a answer) error {
	switch r.class {
	case classReach:
		if want := o.distance(r.u, r.v) >= 0; a.reachable != want {
			return fmt.Errorf("reach(%d,%d) = %v, BFS says %v", r.u, r.v, a.reachable, want)
		}
	case classDist:
		if want := o.distance(r.u, r.v); a.distance != want {
			return fmt.Errorf("dist(%d,%d) = %d, BFS says %d", r.u, r.v, a.distance, want)
		}
	case classNbr:
		if want := o.neighbors(r.u); !slices.Equal(a.neighbors, want) {
			return fmt.Errorf("both(%d) has %d neighbors, adjacency says %d", r.u, len(a.neighbors), len(want))
		}
	}
	return nil
}
