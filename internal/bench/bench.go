// Package bench is the experiment harness reproducing every table and
// figure of the evaluation section of "Compressing Graphs by
// Grammars" (Sec. IV) plus a query-speedup experiment for Sec. V.
// Each experiment returns a formatted Table whose rows mirror what the
// paper reports, with the paper's findings attached as notes;
// cmd/benchall prints them, and DESIGN.md §2 and §5 record where the
// datasets and the algorithm deviate from the paper's.
package bench

import (
	"fmt"
	"strings"

	"graphrepair/internal/baseline/hn"
	"graphrepair/internal/baseline/k2"
	"graphrepair/internal/baseline/lm"
	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/hypergraph"
)

// Config controls experiment workload sizes.
type Config struct {
	// Scale divides dataset sizes (1 = paper scale). Experiments note
	// the scale they ran at.
	Scale int
	// MaxCopies bounds the Fig.-13 sweep (paper: 4096).
	MaxCopies int
	// Quiet suppresses progress output.
	Progress func(format string, args ...any)
}

// DefaultConfig returns a configuration sized for minutes-scale runs.
func DefaultConfig() Config {
	return Config{Scale: 16, MaxCopies: 4096, Progress: func(string, ...any) {}}
}

// Table is one experiment result in printable form.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Measurement helpers ------------------------------------------------

// GRePairSize compresses with gRePair and returns the encoded size in
// bytes plus the stats.
func GRePairSize(g *hypergraph.Graph, labels hypergraph.Label, opts core.Options) (int, core.Stats, error) {
	res, err := core.Compress(g, labels, opts)
	if err != nil {
		return 0, core.Stats{}, err
	}
	_, sz, err := encoding.Encode(res.Grammar)
	if err != nil {
		return 0, core.Stats{}, err
	}
	return sz.TotalBytes(), res.Stats, nil
}

// BPE converts a byte size to bits per edge.
func BPE(bytes int, edges int) float64 {
	if edges == 0 {
		return 0
	}
	return float64(bytes) * 8 / float64(edges)
}

// GRePairBPE is GRePairSize reported in bits per edge.
func GRePairBPE(g *hypergraph.Graph, labels hypergraph.Label, opts core.Options) (float64, error) {
	n, _, err := GRePairSize(g, labels, opts)
	if err != nil {
		return 0, err
	}
	return BPE(n, g.NumEdges()), nil
}

// K2BPE compresses with the plain k²-tree baseline.
func K2BPE(g *hypergraph.Graph) (float64, error) {
	c, err := k2.Compress(g)
	if err != nil {
		return 0, err
	}
	return BPE(c.SizeBytes(), g.NumEdges()), nil
}

// K2Bytes returns the k² baseline size in bytes.
func K2Bytes(g *hypergraph.Graph) (int, error) {
	c, err := k2.Compress(g)
	if err != nil {
		return 0, err
	}
	return c.SizeBytes(), nil
}

// LMBPE compresses with the list-merge baseline (unlabeled graphs).
func LMBPE(g *hypergraph.Graph) (float64, error) {
	c, err := lm.Compress(g, lm.DefaultChunkSize)
	if err != nil {
		return 0, err
	}
	return BPE(c.SizeBytes(), g.NumEdges()), nil
}

// LMBytes returns the LM size in bytes.
func LMBytes(g *hypergraph.Graph) (int, error) {
	c, err := lm.Compress(g, lm.DefaultChunkSize)
	if err != nil {
		return 0, err
	}
	return c.SizeBytes(), nil
}

// HNBPE compresses with the dense-substructure + k² baseline.
func HNBPE(g *hypergraph.Graph) (float64, error) {
	c, _, err := hn.Compress(g, hn.DefaultParams())
	if err != nil {
		return 0, err
	}
	return BPE(c.SizeBytes(), g.NumEdges()), nil
}

// HNGRePairBPE runs HN's virtual-node mining as a preprocessing step
// and gRePair on the transformed graph — the combination the paper
// reports as best on the CA graphs.
func HNGRePairBPE(g *hypergraph.Graph, opts core.Options) (float64, error) {
	tr, err := hn.Transform(g, hn.DefaultParams())
	if err != nil {
		return 0, err
	}
	n, _, err := GRePairSize(tr.Graph, 1, opts)
	if err != nil {
		return 0, err
	}
	return BPE(n, g.NumEdges()), nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func comma(n int64) string {
	s := fmt.Sprint(n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
