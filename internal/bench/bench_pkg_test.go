package bench

import (
	"strings"
	"testing"

	"graphrepair/internal/gen"
)

// smallCfg keeps experiment smoke tests fast.
func smallCfg() Config {
	return Config{Scale: 256, MaxCopies: 64, Progress: func(string, ...any) {}}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxxx", "1"}, {"y", "2"}},
		Notes:  []string{"n1"},
	}
	s := tb.Format()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "note: n1") {
		t.Fatalf("format output:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestBPEAndComma(t *testing.T) {
	if BPE(100, 0) != 0 {
		t.Fatal("BPE div by zero")
	}
	if BPE(1, 8) != 1 {
		t.Fatalf("BPE(1 byte, 8 edges) = %f, want 1", BPE(1, 8))
	}
	for in, want := range map[int64]string{5: "5", 999: "999", 1000: "1,000", 1234567: "1,234,567"} {
		if got := comma(in); got != want {
			t.Fatalf("comma(%d) = %s, want %s", in, got, want)
		}
	}
}

// TestPerfSpread checks the per-point summary benchall -perf -count
// reports: the lower-middle median, the minimum and the maximum, with
// the input left unsorted.
func TestPerfSpread(t *testing.T) {
	for _, tc := range []struct {
		in          []int64
		med, lo, hi int64
	}{
		{[]int64{7}, 7, 7, 7},
		{[]int64{30, 10, 20}, 20, 10, 30},
		{[]int64{4, 1, 3, 2}, 2, 1, 4},
	} {
		first := tc.in[0]
		med, lo, hi := spread(tc.in)
		if med != tc.med || lo != tc.lo || hi != tc.hi {
			t.Errorf("spread(%v) = %d, %d, %d; want %d, %d, %d", tc.in, med, lo, hi, tc.med, tc.lo, tc.hi)
		}
		if tc.in[0] != first {
			t.Errorf("spread sorted its input in place: %v", tc.in)
		}
	}
}

func TestMeasurementHelpersAgree(t *testing.T) {
	d, err := gen.Generate("ca-grqc", 64)
	if err != nil {
		t.Fatal(err)
	}
	bytes, stats, err := GRePairSize(d.Graph, d.Labels, paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 || stats.Rounds < 0 {
		t.Fatal("nonsense measurement")
	}
	bpe, err := GRePairBPE(d.Graph, d.Labels, paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := BPE(bytes, d.Graph.NumEdges()); bpe != want {
		t.Fatalf("bpe %f != %f", bpe, want)
	}
}

// Each experiment must run end to end at tiny scale and produce the
// expected row/column shape.
func TestExperimentsSmoke(t *testing.T) {
	cfg := smallCfg()
	for _, exp := range Experiments {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			tb, err := exp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range tb.Rows {
				if len(r) != len(tb.Header) {
					t.Fatalf("row width %d != header %d", len(r), len(tb.Header))
				}
			}
			_ = tb.Format()
		})
	}
}

// Shape assertions for the headline results at moderate scale.
func TestShapeTable5RDFTypesWin(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d, err := gen.Generate("rdf-types-ru", 64)
	if err != nil {
		t.Fatal(err)
	}
	gb, _, err := GRePairSize(d.Graph, d.Labels, paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	kb, err := K2Bytes(d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table V: types graphs compress orders of magnitude better
	// with gRePair than with k².
	if gb*10 > kb {
		t.Fatalf("expected ≥10x win on types graph: gRePair %dB vs k2 %dB", gb, kb)
	}
}

func TestShapeFigure13LogVsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	small := gen.CircleCopies(64)
	big := gen.CircleCopies(1024)
	gs, _, err := GRePairSize(small, 1, paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	gbig, _, err := GRePairSize(big, 1, paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	ks, err := K2Bytes(small)
	if err != nil {
		t.Fatal(err)
	}
	kbig, err := K2Bytes(big)
	if err != nil {
		t.Fatal(err)
	}
	// 16x more copies: k² grows ~linearly (≥8x), gRePair far less (<4x).
	if kbig < 8*ks {
		t.Fatalf("k2 did not grow linearly: %d vs %d", ks, kbig)
	}
	if gbig >= 4*gs {
		t.Fatalf("gRePair grew too fast: %d vs %d bytes", gs, gbig)
	}
}

func TestShapeTable6VersionGraphsWin(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d, err := gen.Generate("dblp60-70", 16)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := GRePairBPE(d.Graph, d.Labels, paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	kb, err := K2BPE(d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table VI: gRePair beats k² on version graphs.
	if gr >= kb {
		t.Fatalf("gRePair %.2f bpe not better than k2 %.2f bpe on version graph", gr, kb)
	}
}
