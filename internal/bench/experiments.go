package bench

import (
	"fmt"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
	"graphrepair/internal/query"
)

// paperOpts is the configuration the paper uses for its comparison
// experiments: maxRank 4 and the FP order (Sec. IV-C).
func paperOpts() core.Options { return core.DefaultOptions() }

func load(cfg Config, name string) (*gen.Dataset, error) {
	cfg.Progress("generating %s (scale 1/%d)", name, cfg.Scale)
	return gen.Generate(name, cfg.Scale)
}

// Tables123 reproduces the dataset-statistics tables (Tables I–III):
// |V|, |E|, |Σ| and the number of ≅FP equivalence classes.
func Tables123(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Tables I-III: dataset statistics (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "kind", "|V|", "|E|", "|Sigma|", "|[~FP]|"},
	}
	for _, kind := range []string{"network", "rdf", "version"} {
		for _, name := range gen.Names(kind) {
			d, err := load(cfg, name)
			if err != nil {
				return nil, err
			}
			cfg.Progress("FP classes for %s", name)
			classes := order.Compute(d.Graph, order.FP, 0).Classes
			t.Rows = append(t.Rows, []string{
				d.Name, d.Kind,
				comma(int64(d.Graph.NumNodes())), comma(int64(d.Graph.NumEdges())),
				fmt.Sprint(d.Labels), comma(int64(classes)),
			})
		}
	}
	return t, nil
}

// table4Graphs are the six network graphs of Table IV.
var table4Graphs = []string{
	"email-euall", "notredame", "ca-astroph", "ca-condmat", "ca-grqc", "email-enron",
}

// Table4 reproduces the maxRank sweep (Table IV): compression in bpe
// for maxRank 2..8; the paper finds 2 or 4 best, with differences
// under ~1 bpe, and picks 4.
func Table4(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table IV: maxRank sweep, bpe (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "2", "3", "4", "5", "6", "7", "8"},
		Notes:  []string{"paper: best at maxRank 2 or 4; deltas < ~1 bpe; 4 chosen as default"},
	}
	for _, name := range table4Graphs {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for mr := 2; mr <= 8; mr++ {
			opts := paperOpts()
			opts.MaxRank = mr
			cfg.Progress("table4 %s maxRank=%d", name, mr)
			bpe, err := GRePairBPE(d.Graph, d.Labels, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(bpe))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// figure10Graphs is the representative selection of Fig. 10.
var figure10Graphs = []string{
	"ca-astroph", "dblp60-70", "rdf-specific-en", "rdf-jamendo", "email-euall", "notredame",
}

// Figure10 reproduces the node-order comparison (Fig. 10): bpe per
// order; the paper finds FP best on most graphs, with version graphs
// benefiting hugely and RDF graphs mostly order-insensitive.
func Figure10(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 10: node orders, bpe (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "natural", "bfs", "fp0", "fp", "random"},
		Notes:  []string{"paper: FP best on most; version graphs benefit hugely from FP"},
	}
	for _, name := range figure10Graphs {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, k := range order.Kinds {
			opts := paperOpts()
			opts.Order = k
			opts.Seed = 42
			cfg.Progress("fig10 %s order=%s", name, k)
			bpe, err := GRePairBPE(d.Graph, d.Labels, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(bpe))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure11 reproduces the correlation between |[≅FP]| and compression
// (Fig. 11): one point per dataset; the paper's finding is an empty
// lower-right corner (few classes ⇒ never bad compression).
func Figure11(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 11: FP classes vs compression (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "classes/|V|", "bpe"},
		Notes:  []string{"paper: no graph with few classes and bad compression (empty lower-right corner)"},
	}
	for _, name := range gen.Names("") {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		classes := order.Compute(d.Graph, order.FP, 0).Classes
		cfg.Progress("fig11 %s", name)
		bpe, err := GRePairBPE(d.Graph, d.Labels, paperOpts())
		if err != nil {
			return nil, err
		}
		ratio := float64(classes) / float64(d.Graph.NumNodes())
		t.Rows = append(t.Rows, []string{d.Name, fmt.Sprintf("%.3f", ratio), f2(bpe)})
	}
	return t, nil
}

// Figure12 reproduces the network-graph comparison (Fig. 12):
// gRePair vs k², LM, HN, plus the HN+gRePair combination.
func Figure12(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 12: network graphs, bpe (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "gRePair", "k2", "LM", "HN", "HN+gRePair"},
		Notes: []string{
			"paper: gRePair beats k2 on all but NotreDame; LM/HN usually smaller",
			"paper: HN+gRePair best on the CA graphs",
		},
	}
	for _, name := range gen.Names("network") {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		cfg.Progress("fig12 %s", name)
		gr, err := GRePairBPE(d.Graph, d.Labels, paperOpts())
		if err != nil {
			return nil, err
		}
		kb, err := K2BPE(d.Graph)
		if err != nil {
			return nil, err
		}
		lb, err := LMBPE(d.Graph)
		if err != nil {
			return nil, err
		}
		hb, err := HNBPE(d.Graph)
		if err != nil {
			return nil, err
		}
		cb, err := HNGRePairBPE(d.Graph, paperOpts())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{name, f2(gr), f2(kb), f2(lb), f2(hb), f2(cb)})
	}
	return t, nil
}

// Table5 reproduces the RDF comparison (Table V): output size in KB,
// gRePair vs k²; the paper reports orders-of-magnitude wins on the
// types graphs.
func Table5(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table V: RDF graphs, size in KB (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "gRePair KB", "k2 KB"},
		Notes:  []string{"paper: gRePair much smaller; orders of magnitude on types graphs"},
	}
	for _, name := range gen.Names("rdf") {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		cfg.Progress("table5 %s", name)
		gb, _, err := GRePairSize(d.Graph, d.Labels, paperOpts())
		if err != nil {
			return nil, err
		}
		kb, err := K2Bytes(d.Graph)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.1f", float64(gb)/1024), fmt.Sprintf("%.1f", float64(kb)/1024)})
	}
	return t, nil
}

// Table6 reproduces the version-graph comparison (Table VI): bpe for
// gRePair, k², LM, HN; TTT and Chess have edge labels and are compared
// against k² only, as in the paper.
func Table6(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table VI: version graphs, bpe (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "gRePair", "k2", "LM", "HN"},
		Notes:  []string{"paper: gRePair smallest on every version graph; TTT/Chess vs k2 only (labeled)"},
	}
	for _, name := range gen.Names("version") {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		cfg.Progress("table6 %s", name)
		gr, err := GRePairBPE(d.Graph, d.Labels, paperOpts())
		if err != nil {
			return nil, err
		}
		kb, err := K2BPE(d.Graph)
		if err != nil {
			return nil, err
		}
		lmCell, hnCell := "-", "-"
		if d.Labels == 1 {
			lb, err := LMBPE(d.Graph)
			if err != nil {
				return nil, err
			}
			hb, err := HNBPE(d.Graph)
			if err != nil {
				return nil, err
			}
			lmCell, hnCell = f2(lb), f2(hb)
		}
		t.Rows = append(t.Rows, []string{name, f2(gr), f2(kb), lmCell, hnCell})
	}
	return t, nil
}

// Figure13 reproduces the identical-copies experiment (Fig. 13):
// disjoint unions of the 4-node/5-edge circle, N = 8..MaxCopies in
// powers of two; file sizes in bytes. The paper reports "exponential
// compression" for gRePair (size grows ~logarithmically) while the
// baselines grow linearly with N.
func Figure13(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 13: disjoint copies of a 4-node/5-edge graph, bytes",
		Header: []string{"copies", "gRePair B", "k2 B", "LM B"},
		Notes:  []string{"paper: gRePair orders of magnitude smaller; baselines grow linearly"},
	}
	for n := 8; n <= cfg.MaxCopies; n *= 2 {
		g := gen.CircleCopies(n)
		cfg.Progress("fig13 copies=%d", n)
		gb, _, err := GRePairSize(g, 1, paperOpts())
		if err != nil {
			return nil, err
		}
		kb, err := K2Bytes(g)
		if err != nil {
			return nil, err
		}
		lb, err := LMBytes(g)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(gb), fmt.Sprint(kb), fmt.Sprint(lb)})
	}
	return t, nil
}

// Figure14 reproduces the version-growth experiment (Fig. 14): a DBLP
// co-authorship version graph grown one yearly snapshot at a time,
// compressed under different node orders, with k² as the reference;
// the paper finds FP clearly best and BFS/random near k².
func Figure14(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 14: DBLP version growth x node order, bpe (scale 1/%d)", cfg.Scale),
		Header: []string{"versions", "fp", "bfs", "natural", "random", "k2"},
		Notes:  []string{"paper: FP best; BFS/random much closer to k2"},
	}
	p := gen.DefaultDBLPParams(302)
	p.AuthorsYear0 = p.AuthorsYear0 * 4 / cfg.Scale
	if p.AuthorsYear0 < 50 {
		p.AuthorsYear0 = 50
	}
	snaps := gen.DBLPSnapshots(11, p)
	for k := 2; k <= len(snaps); k++ {
		vg := gen.DisjointUnion(snaps[:k]...)
		row := []string{fmt.Sprint(k)}
		for _, kind := range []order.Kind{order.FP, order.BFS, order.Natural, order.Random} {
			opts := paperOpts()
			opts.Order = kind
			opts.Seed = 7
			cfg.Progress("fig14 k=%d order=%s", k, kind)
			bpe, err := GRePairBPE(vg, 1, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(bpe))
		}
		kb, err := K2BPE(vg)
		if err != nil {
			return nil, err
		}
		row = append(row, f2(kb))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Queries benchmarks Sec. V query evaluation on the grammar against
// the same queries on the decompressed graph: reachability (Thm. 6),
// neighborhoods (Prop. 4) and component counting, reporting timings
// and the compression context. The paper proposes but does not
// implement these; this experiment validates the claimed feasibility.
func Queries(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Section V: query evaluation on the grammar (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "query", "grammar", "decompressed", "results-match"},
	}
	for _, name := range []string{"dblp60-70", "rdf-types-ru", "ca-grqc"} {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		res, err := core.Compress(d.Graph, d.Labels, paperOpts())
		if err != nil {
			return nil, err
		}
		eng, err := query.New(res.Grammar)
		if err != nil {
			return nil, err
		}
		derived, err := res.Grammar.Derive(0)
		if err != nil {
			return nil, err
		}
		n := eng.NumNodes()

		// Reachability: 200 random pairs.
		pairs := make([][2]int64, 200)
		for i := range pairs {
			pairs[i] = [2]int64{1 + int64(i*31)%n, 1 + int64(i*97+5)%n}
		}
		start := time.Now()
		gres := make([]bool, len(pairs))
		for i, p := range pairs {
			gres[i], err = eng.Reachable(p[0], p[1])
			if err != nil {
				return nil, err
			}
		}
		gt := time.Since(start)
		start = time.Now()
		match := true
		var rs hypergraph.ReachScratch
		for i, p := range pairs {
			want := derived.ReachableWith(&rs, hypergraph.NodeID(p[0]), hypergraph.NodeID(p[1]))
			if want != gres[i] {
				match = false
			}
		}
		dt := time.Since(start)
		t.Rows = append(t.Rows, []string{name, "reach x200", gt.String(), dt.String(), fmt.Sprint(match)})

		// Neighborhoods: every 7th node.
		start = time.Now()
		var count int64
		for k := int64(1); k <= n; k += 7 {
			nb, err := eng.Neighbors(k, query.Out)
			if err != nil {
				return nil, err
			}
			count += int64(len(nb))
		}
		gt = time.Since(start)
		start = time.Now()
		var count2 int64
		for k := int64(1); k <= n; k += 7 {
			count2 += int64(len(derived.OutNeighbors(hypergraph.NodeID(k))))
		}
		dt = time.Since(start)
		t.Rows = append(t.Rows, []string{name, "out-nbrs", gt.String(), dt.String(), fmt.Sprint(count == count2)})

		// Components.
		start = time.Now()
		gc := eng.ComponentCount()
		gt = time.Since(start)
		start = time.Now()
		dc := int64(len(derived.WeakComponents()))
		dt = time.Since(start)
		t.Rows = append(t.Rows, []string{name, "components", gt.String(), dt.String(), fmt.Sprint(gc == dc)})
	}
	return t, nil
}

// Experiments maps experiment names to runners, in presentation order.
var Experiments = []struct {
	Name string
	Run  func(Config) (*Table, error)
}{
	{"tables123", Tables123},
	{"table4", Table4},
	{"fig10", Figure10},
	{"fig11", Figure11},
	{"fig12", Figure12},
	{"table5", Table5},
	{"table6", Table6},
	{"fig13", Figure13},
	{"fig14", Figure14},
	{"queries", Queries},
	{"ablation", Ablation},
	{"ablation-circle", CircleAblation},
}
