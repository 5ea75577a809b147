// Package gen generates the synthetic dataset analogs used to
// reproduce the evaluation of "Compressing Graphs by Grammars"
// (Tables I–III and Figs. 10–14). The paper evaluates on public
// datasets (SNAP network graphs, DBpedia/Identica/Jamendo RDF dumps,
// SUBDUE game graphs, DBLP snapshots) that are unavailable offline;
// each generator reproduces the structural properties gRePair's
// behavior depends on — degree distributions, star patterns, repeated
// substructures, versioned snapshots — at matching (scalable) sizes.
// See DESIGN.md §2 for the substitution rationale.
//
// All generators are deterministic for a given seed.
package gen

import (
	"math/rand"

	"graphrepair/internal/hypergraph"
)

// Dataset is one generated graph with its metadata.
type Dataset struct {
	Name   string
	Kind   string // "network", "rdf" or "version"
	Labels hypergraph.Label
	Graph  *hypergraph.Graph
}

// tripleSet accumulates unique, loop-free triples.
type tripleSet struct {
	seen map[hypergraph.Triple]bool
	list []hypergraph.Triple
}

func newTripleSet() *tripleSet { return &tripleSet{seen: map[hypergraph.Triple]bool{}} }

func (s *tripleSet) add(src, dst hypergraph.NodeID, lab hypergraph.Label) bool {
	if src == dst {
		return false
	}
	t := hypergraph.Triple{Src: src, Dst: dst, Label: lab}
	if s.seen[t] {
		return false
	}
	s.seen[t] = true
	s.list = append(s.list, t)
	return true
}

func (s *tripleSet) graph(n int) *hypergraph.Graph {
	g, _ := hypergraph.FromTriples(n, s.list)
	return g
}

// Coauthorship builds an undirected-style co-authorship network with
// the affiliation ("clique per paper") model: papers draw 2..maxA
// authors by preferential attachment and every author pair of a paper
// is connected in both directions (SNAP CA-* graphs list both
// directions of each collaboration edge). targetEdges counts directed
// edges.
func Coauthorship(n, targetEdges, maxA int, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	ts := newTripleSet()
	// Endpoint pool for preferential attachment; seeded uniformly.
	pool := make([]hypergraph.NodeID, 0, targetEdges/2+n)
	for i := 1; i <= n; i++ {
		pool = append(pool, hypergraph.NodeID(i))
	}
	authors := make([]hypergraph.NodeID, 0, maxA)
	for len(ts.list) < targetEdges {
		k := 2 + rng.Intn(maxA-1)
		authors = authors[:0]
		for len(authors) < k {
			var a hypergraph.NodeID
			if rng.Intn(4) == 0 { // fresh blood keeps the tail broad
				a = hypergraph.NodeID(1 + rng.Intn(n))
			} else {
				a = pool[rng.Intn(len(pool))]
			}
			dup := false
			for _, b := range authors {
				if a == b {
					dup = true
					break
				}
			}
			if !dup {
				authors = append(authors, a)
			}
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if ts.add(authors[i], authors[j], 1) {
					pool = append(pool, authors[i], authors[j])
				}
				ts.add(authors[j], authors[i], 1)
				if len(ts.list) >= targetEdges {
					break
				}
			}
		}
	}
	return ts.graph(n)
}

// HeavyTailDirected builds a directed network with heavy-tailed in-
// and out-degrees (email and wiki communication graphs): endpoints are
// drawn by preferential attachment with a uniform escape probability.
func HeavyTailDirected(n, m int, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	ts := newTripleSet()
	srcPool := make([]hypergraph.NodeID, 0, m+n)
	dstPool := make([]hypergraph.NodeID, 0, m+n)
	for i := 1; i <= n; i++ {
		srcPool = append(srcPool, hypergraph.NodeID(i))
		dstPool = append(dstPool, hypergraph.NodeID(i))
	}
	attempts := 0
	for len(ts.list) < m && attempts < 20*m {
		attempts++
		var s, d hypergraph.NodeID
		if rng.Intn(3) == 0 {
			s = hypergraph.NodeID(1 + rng.Intn(n))
		} else {
			s = srcPool[rng.Intn(len(srcPool))]
		}
		if rng.Intn(3) == 0 {
			d = hypergraph.NodeID(1 + rng.Intn(n))
		} else {
			d = dstPool[rng.Intn(len(dstPool))]
		}
		if ts.add(s, d, 1) {
			srcPool = append(srcPool, s)
			dstPool = append(dstPool, d)
		}
	}
	return ts.graph(n)
}

// WebCopying builds a web-graph-like network with the copying model:
// each node either copies a prefix of an earlier node's out-list
// (creating the shared-outlink structure web compressors exploit) or
// links with locality.
func WebCopying(n, m int, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	ts := newTripleSet()
	adj := make([][]hypergraph.NodeID, n+1)
	addEdge := func(s, d hypergraph.NodeID) {
		if ts.add(s, d, 1) {
			adj[s] = append(adj[s], d)
		}
	}
	perNode := m / n
	if perNode < 1 {
		perNode = 1
	}
	for v := 2; v <= n && len(ts.list) < m; v++ {
		src := hypergraph.NodeID(v)
		proto := hypergraph.NodeID(1 + rng.Intn(v-1))
		copied := 0
		if lst := adj[proto]; len(lst) > 0 && rng.Intn(4) != 0 {
			k := 1 + rng.Intn(len(lst))
			for _, d := range lst[:k] {
				addEdge(src, d)
				copied++
			}
		}
		for copied < perNode {
			// Locality: targets near the source index.
			off := rng.Intn(32) - 16
			t := v + off
			if t < 1 {
				t = 1 + rng.Intn(v)
			}
			if t > n {
				t = n
			}
			addEdge(src, hypergraph.NodeID(t))
			copied++
		}
	}
	// Top up to the target edge count with preferential targets.
	for len(ts.list) < m {
		s := hypergraph.NodeID(1 + rng.Intn(n))
		d := hypergraph.NodeID(1 + rng.Intn(n))
		ts.add(s, d, 1)
	}
	return ts.graph(n)
}

// RDFTypes builds a DBpedia-types-like star graph: one predicate,
// subjects pointing at a small set of type objects with a Zipf
// distribution, typesPerSubject on average (≥ 1). Subjects with
// several types receive a type CHAIN — a leaf type plus its ancestors
// in a type hierarchy — because DBpedia's rdf:type sets are ontology
// chains (Person ⊂ Agent ⊂ Thing), not independent draws; this is
// what makes multi-type graphs like types-de-en compressible.
func RDFTypes(subjects, types int, typesPerSubject float64, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(types-1))
	// Type hierarchy: parent[t] < t, forming a forest with a handful
	// of roots; a chain from t upward yields the subject's type set.
	parent := make([]int, types)
	for t := 1; t < types; t++ {
		if t < 8 {
			parent[t] = -1 // roots
		} else {
			parent[t] = rng.Intn(t)
		}
	}
	parent[0] = -1
	n := subjects + types
	ts := newTripleSet()
	typeNode := func(t int) hypergraph.NodeID { return hypergraph.NodeID(subjects + 1 + t) }
	for s := 1; s <= subjects; s++ {
		k := 1
		for rng.Float64() < typesPerSubject-float64(k) {
			k++
		}
		t := int(zipf.Uint64())
		for i := 0; i < k; i++ {
			ts.add(hypergraph.NodeID(s), typeNode(t), 1)
			if parent[t] < 0 {
				break
			}
			t = parent[t]
		}
	}
	return ts.graph(n)
}

// RDFMolecules builds an Identica/Jamendo-like RDF graph: entities of
// a few classes, each with a fixed predicate template pointing partly
// at shared hub objects (types, tags) and partly at private literal
// nodes (dates, names). This yields the repeated "molecule"
// substructures grammar compression thrives on.
func RDFMolecules(entities int, labels hypergraph.Label, classes int, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	// Templates: per class a set of predicates, each shared or private.
	type slot struct {
		pred   hypergraph.Label
		shared bool
	}
	templates := make([][]slot, classes)
	for c := range templates {
		k := 2 + rng.Intn(int(labels))
		if k > int(labels) {
			k = int(labels)
		}
		perm := rng.Perm(int(labels))[:k]
		for _, p := range perm {
			templates[c] = append(templates[c], slot{
				pred:   hypergraph.Label(p + 1),
				shared: rng.Intn(3) != 0,
			})
		}
	}
	hubs := 1 + int(labels)*2 // shared objects per predicate
	ts := newTripleSet()
	next := entities + hubs*int(labels)
	hubID := func(pred hypergraph.Label, i int) hypergraph.NodeID {
		return hypergraph.NodeID(entities + (int(pred)-1)*hubs + i + 1)
	}
	var privates []hypergraph.Triple
	for e := 1; e <= entities; e++ {
		tpl := templates[rng.Intn(classes)]
		for _, sl := range tpl {
			if sl.shared {
				h := hubID(sl.pred, rng.Intn(hubs))
				ts.add(hypergraph.NodeID(e), h, sl.pred)
			} else {
				next++
				privates = append(privates, hypergraph.Triple{
					Src: hypergraph.NodeID(e), Dst: hypergraph.NodeID(next), Label: sl.pred})
			}
		}
	}
	for _, t := range privates {
		ts.add(t.Src, t.Dst, t.Label)
	}
	return ts.graph(next)
}

// CircleCopies builds the Fig.-13 synthetic family: copies disjoint
// copies of a directed 4-node circle with one diagonal (4 nodes, 5
// edges per copy).
func CircleCopies(copies int) *hypergraph.Graph {
	g := hypergraph.New(4 * copies)
	for c := 0; c < copies; c++ {
		b := hypergraph.NodeID(4 * c)
		g.AddEdge(1, b+1, b+2)
		g.AddEdge(1, b+2, b+3)
		g.AddEdge(1, b+3, b+4)
		g.AddEdge(1, b+4, b+1)
		g.AddEdge(1, b+1, b+3)
	}
	return g
}

// DisjointUnion concatenates graphs as one graph with shifted node
// IDs (the paper's version-graph construction).
func DisjointUnion(graphs ...*hypergraph.Graph) *hypergraph.Graph {
	total := 0
	for _, g := range graphs {
		total += int(g.MaxNodeID())
	}
	out := hypergraph.New(total)
	off := hypergraph.NodeID(0)
	for _, g := range graphs {
		for id := range g.EdgesSeq() {
			src := g.Att(id)
			att := make([]hypergraph.NodeID, len(src))
			for i, v := range src {
				att[i] = v + off
			}
			out.AddEdge(g.Label(id), att...)
		}
		off += g.MaxNodeID()
	}
	return out
}

// maxLabel returns the largest edge label of g, or 1 if g has no
// edges. Labels is already sorted ascending.
func maxLabel(g *hypergraph.Graph) hypergraph.Label {
	labs := g.Labels()
	if len(labs) == 0 {
		return 1
	}
	return labs[len(labs)-1]
}
