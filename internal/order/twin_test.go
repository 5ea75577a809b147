package order

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"graphrepair/internal/hypergraph"
)

// twinOrder is the naive executable twin of FP (maxRounds < 0) and FP0
// (maxRounds = 1): every round rebuilds every node's full signature
// [c(v), sorted packed neighbor tuples...] from the graph, sorts all
// nodes by it, and relabels them by dense rank, until the class count
// stops growing; the order is a comparison sort by (color, ID). It
// shares nothing with the Refiner but compareSig and labelBits, so
// FuzzOrder and TestFPChainMatchesTwin pin the Refiner's partition
// bookkeeping against it. It is quadratic on long paths.
func twinOrder(g *hypergraph.Graph, maxRounds int) *Result {
	nodes := g.Nodes()
	n := len(nodes)
	color := make([]int64, int(g.MaxNodeID())+1)
	for _, v := range nodes {
		color[v] = int64(g.Degree(v))
	}
	classes := countColors(nodes, color)

	maxLab := hypergraph.Label(0)
	for id := range g.EdgesSeq() {
		maxLab = max(maxLab, g.Label(id))
	}
	var labels []hypergraph.Label
	if maxLab >= 1<<labelBits {
		for id := range g.EdgesSeq() {
			labels = append(labels, g.Label(id))
		}
		slices.Sort(labels)
		labels = slices.Compact(labels)
	}

	sigs := make([][]int64, n)
	perm := make([]int, n)
	for rounds := 1; n > 0 && (maxRounds < 0 || rounds < maxRounds); rounds++ {
		for i, v := range nodes {
			s := []int64{color[v]}
			for id := range g.IncidentSeqRO(v) {
				lab := int64(g.Label(id))
				if labels != nil {
					rank, _ := slices.BinarySearch(labels, g.Label(id))
					lab = int64(rank)
				}
				myPos := int64(g.AttPos(id, v))
				for otherPos, u := range g.Att(id) {
					if u != v {
						s = append(s, lab<<44|myPos<<38|int64(otherPos)<<32|color[u])
					}
				}
			}
			slices.Sort(s[1:])
			sigs[i] = s
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int { return compareSig(sigs[a], sigs[b]) })
		next := make([]int64, len(color))
		cls := int64(0)
		for k, i := range perm {
			if k > 0 && compareSig(sigs[perm[k-1]], sigs[i]) != 0 {
				cls++
			}
			next[nodes[i]] = cls
		}
		color = next
		if int(cls)+1 == classes {
			break
		}
		classes = int(cls) + 1
	}

	seq := slices.Clone(nodes)
	slices.SortFunc(seq, func(a, b hypergraph.NodeID) int {
		if color[a] != color[b] {
			if color[a] < color[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	pos := make([]int32, int(g.MaxNodeID())+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range seq {
		pos[v] = int32(i)
	}
	return &Result{Seq: seq, Pos: pos, Classes: classes}
}

// countColors returns the number of distinct colors over nodes.
func countColors(nodes []hypergraph.NodeID, color []int64) int {
	seen := make(map[int64]bool)
	for _, v := range nodes {
		seen[color[v]] = true
	}
	return len(seen)
}

// twinRounds maps the Refiner's refined kinds to the twin's round
// bound.
var twinRounds = map[Kind]int{FP0: 1, FP: -1}

// matchesTwin asserts that got, an FP or FP0 result on g, equals the
// twin's; other kinds have no twin and pass.
func matchesTwin(t *testing.T, g *hypergraph.Graph, k Kind, what string, got *Result) {
	t.Helper()
	if rounds, ok := twinRounds[k]; ok {
		sameOrder(t, k, what+" vs twin", twinOrder(g, rounds), got)
	}
}

// TestFPChainMatchesTwin runs FP on Fig. 1's alternating a/b chain of
// 1,025 nodes, which needs hundreds of rounds, each splitting off the
// nodes next to the ones split off before.
func TestFPChainMatchesTwin(t *testing.T) {
	g := chainGraph(512)
	for _, k := range []Kind{FP0, FP} {
		got := Compute(g, k, 0)
		checkPermutation(t, g, k, got)
		matchesTwin(t, g, k, "chain", got)
	}
	// The ends differ (one has an out-going a, the other an in-coming
	// b), so the chain has no symmetry and FP tells every node apart.
	if c := FPClasses(g); c != 1025 {
		t.Fatalf("chain FP classes = %d, want 1025", c)
	}
}

// chainGraph is the Fig. 1b graph: 2n+1 nodes on a path alternating
// a- and b-edges (a b a b ...).
func chainGraph(n int) *hypergraph.Graph {
	g := hypergraph.New(2*n + 1)
	for i := 0; i < n; i++ {
		g.AddEdge(1, hypergraph.NodeID(2*i+1), hypergraph.NodeID(2*i+2))
		g.AddEdge(2, hypergraph.NodeID(2*i+2), hypergraph.NodeID(2*i+3))
	}
	return g
}

// TestFPHubsMatchTwin runs FP on an rdf-like graph: 3,000 leaves
// pointing at 20 hubs of unequal degree, a few with a second edge, and
// one label whose packed tuples are negative. Its degree-1 class is
// large enough for the radix sort of one-tuple signatures.
func TestFPHubsMatchTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const leaves, hubs = 3000, 20
	g := hypergraph.New(leaves + hubs)
	labels := []hypergraph.Label{1, 2, 1 + 1<<19}
	hub := func() hypergraph.NodeID { return hypergraph.NodeID(leaves + 1 + rng.Intn(1+rng.Intn(hubs))) }
	for v := hypergraph.NodeID(1); v <= leaves; v++ {
		g.AddEdge(labels[rng.Intn(len(labels))], v, hub())
		if rng.Intn(50) == 0 {
			g.AddEdge(1, hub(), v)
		}
	}
	for _, k := range []Kind{FP0, FP} {
		got := Compute(g, k, 0)
		checkPermutation(t, g, k, got)
		matchesTwin(t, g, k, "hubs", got)
	}
}

// TestSortFirst checks the radix sort against a comparison sort on
// keys of both signs, with few and with many distinct values.
func TestSortFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, distinct := range []int{1, 3, 40, 5000} {
		keys := make([]int64, distinct)
		for i := range keys {
			keys[i] = int64(rng.Uint64())
		}
		items := make([]item, 5000)
		for i := range items {
			items[i] = item{first: keys[rng.Intn(distinct)], node: int32(i)}
		}
		want := slices.Clone(items)
		slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.first, b.first) })
		sortFirst(items)
		for i := range items {
			if items[i].first != want[i].first {
				t.Fatalf("%d distinct: items[%d].first = %d, want %d", distinct, i, items[i].first, want[i].first)
			}
		}
	}
}

// TestFPRanksLabelsOfLoneNodes puts the only label wider than 20 bits
// on an edge between two nodes each alone with its degree, whose
// tuples the Refiner never builds. Labels must still be ranked, or the
// leaves' label 1+2^19 packs negative and sorts before label 1.
func TestFPRanksLabelsOfLoneNodes(t *testing.T) {
	g := hypergraph.New(12)
	g.AddEdge(1+1<<20, 1, 2)
	for v := hypergraph.NodeID(3); v <= 12; v++ {
		hub := hypergraph.NodeID(1) // degrees 7 and 5
		if v > 8 {
			hub = 2
		}
		g.AddEdge([]hypergraph.Label{1, 1 + 1<<19}[v%2], v, hub)
	}
	for _, k := range []Kind{FP0, FP} {
		matchesTwin(t, g, k, "lone wide label", Compute(g, k, 0))
	}
}
