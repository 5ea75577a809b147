package query

import (
	"context"
	"fmt"

	"graphrepair/internal/govern"
	"graphrepair/internal/hypergraph"
)

// The engine's one skeleton is the paper's Thm.-6 skeleton in the
// min-plus semiring: dsk(A)[i][j] is the length of a shortest directed
// path from external node i to external node j inside val(A), or
// maxDist if none exists, so reachability is a finite entry.
// Shortest-path distance is a "compatible" function in the sense of
// Sec. V (Courcelle–Mosbah evaluations), so the skeletons come out of
// the engine's one bottom-up fold.

// Unreachable is returned by Distance when no directed path exists.
const Unreachable = int64(-1)

// maxDist is the "no path" entry of a skeleton. Finite lengths
// saturate one below it (addDist), so "finite" stays exact even when a
// grammar derives paths longer than int64 can count.
const maxDist = int64(1) << 62

// addDist adds two finite lengths, saturating at maxDist-1.
func addDist(a, b int64) int64 {
	return min(a+b, maxDist-1)
}

// distSkeletons returns the min-plus skeletons, rule-indexed,
// computing them in one fold on first use (eagerly under
// EngineOptions.Precompute). The pass polls ctx and is memoized only
// on success, so a canceled build is retried by the next query.
func (e *Engine) distSkeletons(ctx context.Context) ([][][]int64, error) {
	return e.dskel.get(func() ([][][]int64, error) {
		const op = "query: distance skeletons"
		tk := ticker{ctx: ctx}
		sr := search[hypergraph.NodeID]{dist: map[hypergraph.NodeID]int64{}}
		adj := map[hypergraph.NodeID][]arc[hypergraph.NodeID]{}
		add := func(a, b hypergraph.NodeID, w int64) {
			adj[a] = append(adj[a], arc[hypergraph.NodeID]{b, w})
		}
		return fold(e, &tk, op, func(h *hypergraph.Graph, dskel [][][]int64) ([][]int64, error) {
			ext := h.Ext()
			if len(ext) == 0 {
				return nil, nil // the start graph has no external nodes
			}
			clear(adj)
			for id := range h.EdgesSeq() {
				e.arcs(h, id, dskel, add)
			}
			sk := make([][]int64, len(ext))
			for i, src := range ext {
				if err := sr.dijkstra(&tk, op, adj, src, nil); err != nil {
					return nil, err
				}
				sk[i] = make([]int64, len(ext))
				for j, dst := range ext {
					sk[i][j] = maxDist
					if d, ok := sr.dist[dst]; ok {
						sk[i][j] = d
					}
				}
			}
			return sk, nil
		})
	})
}

// arc is an edge of an expanded graph: a terminal edge (length 1) or
// a finite skeleton entry (its min-plus length).
type arc[K comparable] struct {
	to K
	w  int64
}

// search is the reusable state of the engine's one Dijkstra, generic
// over the node key: tentative distances, and a binary min-heap of
// (distance, node) entries in which a node may appear more than once
// (entries older than dist are skipped on pop).
type search[K comparable] struct {
	dist map[K]int64
	heap []heapItem[K]
}

type heapItem[K comparable] struct {
	d int64
	k K
}

// dijkstra computes shortest-path lengths from src over adj into
// s.dist. With dst non-nil it stops as soon as *dst is settled;
// otherwise s.dist ends up holding the exact distance of every node
// reachable from src. ctx is polled (through tk) at every extraction.
func (s *search[K]) dijkstra(tk *ticker, op string, adj map[K][]arc[K], src K, dst *K) error {
	clear(s.dist)
	s.heap = s.heap[:0]
	s.dist[src] = 0
	s.push(heapItem[K]{0, src})
	for len(s.heap) > 0 {
		if err := tk.check(op); err != nil {
			return err
		}
		it := s.pop()
		if it.d > s.dist[it.k] {
			continue
		}
		if dst != nil && it.k == *dst {
			return nil
		}
		for _, a := range adj[it.k] {
			nd := addDist(it.d, a.w)
			if d, ok := s.dist[a.to]; !ok || nd < d {
				s.dist[a.to] = nd
				s.push(heapItem[K]{nd, a.to})
			}
		}
	}
	return nil
}

func (s *search[K]) push(it heapItem[K]) {
	s.heap = append(s.heap, it)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= it.d {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

func (s *search[K]) pop() heapItem[K] {
	h := s.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	s.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].d < h[c].d {
			c++
		}
		if last.d <= h[c].d {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Distance returns the length of a shortest directed path from derived
// node u to derived node v in val(G), or Unreachable. Like Reachable
// it works on the path-expanded graph with (min-plus) skeletons
// summarizing unexpanded subtrees, in O(|G|·rank²) plus the expansion.
// A shortest path too long to count below 2^62-1 is reported as a
// *govern.LimitError (errors.Is(err, govern.ErrLimit)).
func (e *Engine) Distance(u, v int64) (int64, error) {
	return e.DistanceContext(context.Background(), u, v)
}

// DistanceContext is Distance with cooperative cancellation: ctx is
// polled during the min-plus skeleton precomputation and at Dijkstra
// frontier extractions.
func (e *Engine) DistanceContext(ctx context.Context, u, v int64) (int64, error) {
	if u == v {
		return 0, nil
	}
	key := cacheKey{op: opDist, a: u, b: v}
	if e.cache != nil {
		if cv, ok := e.cache.get(key); ok {
			return cv.n, nil
		}
	}
	s := e.getScratch()
	defer e.putScratch(s)
	src, dst, err := e.expand(ctx, s, u, v)
	if err != nil {
		return 0, err
	}
	tk := ticker{ctx: ctx}
	if err := s.sr.dijkstra(&tk, "query: distance", s.wadj, src, &dst); err != nil {
		return 0, err
	}
	result, ok := s.sr.dist[dst]
	switch {
	case !ok:
		result = Unreachable
	case result == maxDist-1:
		return 0, fmt.Errorf("query: distance %d→%d: %w", u, v,
			&govern.LimitError{Resource: "path length", Demanded: result, Allowed: maxDist - 2})
	}
	if e.cache != nil {
		e.cache.put(key, cacheVal{n: result})
	}
	return result, nil
}
