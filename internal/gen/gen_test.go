package gen

import (
	"testing"

	"graphrepair/internal/hypergraph"
)

func TestCatalogCoversPaperTables(t *testing.T) {
	if got := len(Names("network")); got != 8 {
		t.Fatalf("network datasets = %d, want 8 (Table I)", got)
	}
	if got := len(Names("rdf")); got != 6 {
		t.Fatalf("rdf datasets = %d, want 6 (Table II)", got)
	}
	if got := len(Names("version")); got != 4 {
		t.Fatalf("version datasets = %d, want 4 (Table III)", got)
	}
	if len(Names("")) != 18 {
		t.Fatal("total catalog size wrong")
	}
	if _, err := Generate("no-such-graph", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestAllDatasetsGenerateAtTestScale(t *testing.T) {
	for _, name := range Names("") {
		d, err := Generate(name, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := d.Graph
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		// All catalog graphs are simple: rank-2, no self-loops, no
		// duplicate (label, src, dst) — required by the compressor
		// and the adjacency-matrix encoders.
		seen := map[hypergraph.Triple]bool{}
		for id := range g.EdgesSeq() {
			att, lab := g.Att(id), g.Label(id)
			if len(att) != 2 {
				t.Fatalf("%s: edge rank %d", name, len(att))
			}
			if att[0] == att[1] {
				t.Fatalf("%s: self-loop", name)
			}
			if lab < 1 || lab > d.Labels {
				t.Fatalf("%s: label %d outside 1..%d", name, lab, d.Labels)
			}
			tr := hypergraph.Triple{Src: att[0], Dst: att[1], Label: lab}
			if seen[tr] {
				t.Fatalf("%s: duplicate edge %v", name, tr)
			}
			seen[tr] = true
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"ca-grqc", "rdf-identica", "dblp60-70", "chess"} {
		a, err := Generate(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !hypergraph.EqualSimple(a.Graph, b.Graph) {
			t.Fatalf("%s: nondeterministic generation", name)
		}
	}
}

func TestTicTacToeExactProperties(t *testing.T) {
	g := TicTacToe()
	// The reachable-state count of tic-tac-toe is 5478.
	if g.NumNodes() != 5478 {
		t.Fatalf("TTT states = %d, want 5478", g.NumNodes())
	}
	// The empty board is the unique state with no incoming move and
	// exactly 9 X-moves out (node IDs are deterministically shuffled).
	var root hypergraph.NodeID
	for v := hypergraph.NodeID(1); int(v) <= g.NumNodes(); v++ {
		if len(g.InNeighbors(v)) == 0 {
			if root != 0 {
				t.Fatal("multiple rootless states")
			}
			root = v
		}
	}
	if root == 0 || len(g.OutNeighbors(root)) != 9 {
		t.Fatalf("empty board not found or wrong move count (root %d)", root)
	}
	// Labels are within 1..3 and all appear.
	labs := g.Labels()
	if len(labs) != 3 {
		t.Fatalf("TTT labels = %v", labs)
	}
	// The state graph is a DAG rooted at the empty board: everything
	// is reachable from it.
	reach := 0
	var rs hypergraph.ReachScratch
	for v := hypergraph.NodeID(1); int(v) <= g.NumNodes(); v++ {
		if g.ReachableWith(&rs, root, v) {
			reach++
		}
	}
	if reach != g.NumNodes() {
		t.Fatalf("only %d/%d states reachable from the empty board", reach, g.NumNodes())
	}
}

func TestRDFTypesIsStarShaped(t *testing.T) {
	g := RDFTypes(2000, 20, 1.001, 1)
	// Types (hubs) have huge in-degree; subjects tiny out-degree.
	maxIn := 0
	for v := hypergraph.NodeID(2001); int(v) <= g.NumNodes(); v++ {
		if d := len(g.InNeighbors(v)); d > maxIn {
			maxIn = d
		}
	}
	if maxIn < 200 {
		t.Fatalf("largest type hub has only %d subjects", maxIn)
	}
	// |E| ≈ subjects.
	if g.NumEdges() < 2000 || g.NumEdges() > 2100 {
		t.Fatalf("|E| = %d, want ≈2000", g.NumEdges())
	}
}

func TestCoauthorshipSymmetricAndClustered(t *testing.T) {
	g := Coauthorship(500, 4000, 5, 9)
	// Both directions of each collaboration must exist.
	for id := range g.EdgesSeq() {
		att := g.Att(id)
		found := false
		for id2 := range g.IncidentSeqRO(att[1]) {
			att2 := g.Att(id2)
			if att2[0] == att[1] && att2[1] == att[0] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %d (%v) has no reverse", id, att)
		}
	}
}

func TestDBLPSnapshotsGrowMonotonically(t *testing.T) {
	snaps := DBLPSnapshots(6, DefaultDBLPParams(5))
	if len(snaps) != 6 {
		t.Fatal("snapshot count")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].NumNodes() <= snaps[i-1].NumNodes() {
			t.Fatalf("snapshot %d did not grow: %d vs %d", i,
				snaps[i].NumNodes(), snaps[i-1].NumNodes())
		}
		if snaps[i].NumEdges() < snaps[i-1].NumEdges() {
			t.Fatalf("snapshot %d lost edges", i)
		}
	}
	// Early snapshot edges must be contained in later snapshots.
	early := snaps[0].Triples()
	lateSet := map[hypergraph.Triple]bool{}
	for _, tr := range snaps[5].Triples() {
		lateSet[tr] = true
	}
	for _, tr := range early {
		if !lateSet[tr] {
			t.Fatalf("edge %v vanished from later snapshot", tr)
		}
	}
}

func TestCircleCopies(t *testing.T) {
	g := CircleCopies(16)
	if g.NumNodes() != 64 || g.NumEdges() != 80 {
		t.Fatalf("circle copies: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if comps := g.WeakComponents(); len(comps) != 16 {
		t.Fatalf("components = %d, want 16", len(comps))
	}
}

func TestDisjointUnionShiftsIDs(t *testing.T) {
	a := hypergraph.New(2)
	a.AddEdge(1, 1, 2)
	b := hypergraph.New(3)
	b.AddEdge(2, 1, 3)
	u := DisjointUnion(a, b)
	if u.NumNodes() != 5 || u.NumEdges() != 2 {
		t.Fatal("union sizes wrong")
	}
	tr := u.Triples()
	if tr[1].Src != 3 || tr[1].Dst != 5 || tr[1].Label != 2 {
		t.Fatalf("shifted edge = %v", tr[1])
	}
}

func TestScaleReducesSize(t *testing.T) {
	big, err := Generate("ca-grqc", 8)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Generate("ca-grqc", 32)
	if err != nil {
		t.Fatal(err)
	}
	if small.Graph.NumNodes() >= big.Graph.NumNodes() {
		t.Fatal("scaling has no effect")
	}
}
