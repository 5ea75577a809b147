package bench

import (
	"fmt"

	"graphrepair/internal/core"
	"graphrepair/internal/gen"
)

// Ablation quantifies the design choices DESIGN.md §5 documents on
// top of the paper's algorithm: the virtual-edge stage (paper), the
// pruning phase (paper), and the stage fixpoint (our extension of the
// single counting pass). Reported as bpe per configuration.
func Ablation(cfg Config) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: gRePair design choices, bpe (scale 1/%d)", cfg.Scale),
		Header: []string{"graph", "default", "no-virtual", "no-prune", "single-pass"},
		Notes: []string{
			"no-virtual: skip the component-connection stage (Sec. III-A)",
			"no-prune: keep all rules (Sec. III-A3 off)",
			"single-pass: one occurrence-counting pass per stage (literal paper loop)",
		},
	}
	for _, name := range []string{"ttt", "dblp60-70", "rdf-types-ru", "ca-grqc"} {
		d, err := load(cfg, name)
		if err != nil {
			return nil, err
		}
		variants := []struct {
			name   string
			mutate func(*core.Options)
		}{
			{"default", func(*core.Options) {}},
			{"no-virtual", func(o *core.Options) { o.ConnectComponents = false }},
			{"no-prune", func(o *core.Options) { o.SkipPrune = true }},
			{"single-pass", func(o *core.Options) { o.SinglePass = true }},
		}
		row := []string{name}
		for _, v := range variants {
			opts := paperOpts()
			v.mutate(&opts)
			cfg.Progress("ablation %s %s", name, v.name)
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

// CircleAblation isolates the virtual-edge stage on the Fig.-13
// family, where it is the difference between linear and logarithmic
// output growth.
func CircleAblation(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: virtual edges on identical copies (bytes)",
		Header: []string{"copies", "with-virtual", "without-virtual"},
	}
	max := cfg.MaxCopies
	if max > 1024 {
		max = 1024
	}
	for n := 16; n <= max; n *= 4 {
		g := gen.CircleCopies(n)
		with, _, err := GRePairSize(g, 1, paperOpts())
		if err != nil {
			return nil, err
		}
		opts := paperOpts()
		opts.ConnectComponents = false
		without, _, err := GRePairSize(g, 1, opts)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(with), fmt.Sprint(without)})
	}
	return t, nil
}
