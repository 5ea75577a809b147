// Command benchall reruns the paper's evaluation: every table and
// figure of Sec. IV plus the Sec.-V query experiment, on the synthetic
// dataset analogs (internal/gen).
//
// Usage:
//
//	benchall                  # all experiments at the default scale
//	benchall -exp table5      # one experiment
//	benchall -scale 4         # closer to paper-scale datasets (slower)
//	benchall -exp fig13 -copies 4096
//	benchall -perf -json BENCH_1.json   # machine-readable perf point
//	benchall -perf -perfscale 1 -workers 1,4   # full-scale parallel sweep
//	benchall -perf -servegoroutines 1,4 # add shared-engine query serving rows
//
// Output is plain text, one table per experiment, with the paper's
// qualitative findings attached as notes for comparison. With -perf
// the tool instead measures the compressor on the medium generator
// graphs (compression ratio, wall time, bytes/op, allocs/op) and, via
// -json, records the result as a trajectory point for regression
// tracking across PRs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"graphrepair/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all|"+names())
		scale     = flag.Int("scale", 16, "dataset size divisor (1 = paper scale)")
		copies    = flag.Int("copies", 4096, "max copies for fig13")
		verbose   = flag.Bool("v", false, "print progress to stderr")
		perf      = flag.Bool("perf", false, "run the compressor perf suite instead of the paper experiments")
		perfScale = flag.Int("perfscale", 64, "dataset size divisor for -perf (64 matches go test -bench BenchmarkCompress)")
		jsonPath  = flag.String("json", "", "with -perf: also write the report as JSON to this path")
		workersCS = flag.String("workers", "0", "with -perf: comma-separated compression worker counts to measure (e.g. 1,4)")
		serveCS   = flag.String("servegoroutines", "", "with -perf: also measure concurrent query serving at these goroutine counts (e.g. 1,4)")
	)
	flag.Parse()

	workers, err := parseWorkers(*workersCS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: -workers: %v\n", err)
		os.Exit(2)
	}
	var serveGs []int
	if *serveCS != "" {
		if serveGs, err = parseWorkers(*serveCS); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: -servegoroutines: %v\n", err)
			os.Exit(2)
		}
	}

	progress := func(string, ...any) {}
	if *verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "benchall: "+format+"\n", args...)
		}
	}

	if *perf {
		runPerf(*perfScale, workers, serveGs, *jsonPath, progress)
		return
	}

	cfg := bench.Config{Scale: *scale, MaxCopies: *copies, Progress: progress}

	run := func(name string, f func(bench.Config) (*bench.Table, error)) {
		start := time.Now()
		t, err := f(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		fmt.Printf("(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	found := false
	for _, e := range bench.Experiments {
		if *exp == "all" || *exp == e.Name {
			run(e.Name, e.Run)
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "benchall: unknown experiment %q (want all|%s)\n", *exp, names())
		os.Exit(2)
	}
}

func names() string {
	var n []string
	for _, e := range bench.Experiments {
		n = append(n, e.Name)
	}
	return strings.Join(n, "|")
}

// parseWorkers parses the -workers list ("1,4") into worker counts.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, w)
	}
	return out, nil
}

// runPerf measures the compressor on the medium generator graphs,
// prints a summary table, and optionally writes the machine-readable
// report (the BENCH_<n>.json trajectory format).
func runPerf(scale int, workers, serveGs []int, jsonPath string, progress func(string, ...any)) {
	rep, err := bench.Perf(bench.PerfDatasets, scale, workers, progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchall: perf: %v\n", err)
		os.Exit(1)
	}
	if len(serveGs) > 0 {
		rep.Serving, err = bench.ServePerf(bench.PerfDatasets, scale, serveGs, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: serve perf: %v\n", err)
			os.Exit(1)
		}
	}
	t := &bench.Table{
		Title:  fmt.Sprintf("Compressor perf (scale 1/%d, %s %s/%s)", scale, rep.GoVersion, rep.GOOS, rep.GOARCH),
		Header: []string{"dataset", "workers", "nodes", "edges", "bytes", "bpe", "ratio", "ms/op", "KB/op", "allocs/op"},
	}
	for _, r := range rep.Results {
		t.Rows = append(t.Rows, []string{
			r.Dataset,
			fmt.Sprint(r.Workers),
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Edges),
			fmt.Sprint(r.EncodedBytes),
			fmt.Sprintf("%.2f", r.BitsPerEdge),
			fmt.Sprintf("%.3f", r.Ratio),
			fmt.Sprintf("%.2f", r.WallMsPerOp),
			fmt.Sprint(r.BytesPerOp / 1024),
			fmt.Sprint(r.AllocsPerOp),
		})
	}
	fmt.Println(t.Format())
	if len(rep.Serving) > 0 {
		st := &bench.Table{
			Title:  fmt.Sprintf("Concurrent query serving (scale 1/%d, shared precomputed engine)", scale),
			Header: []string{"dataset", "goroutines", "nodes", "edges", "ns/query", "queries/s"},
		}
		for _, r := range rep.Serving {
			st.Rows = append(st.Rows, []string{
				r.Dataset,
				fmt.Sprint(r.Goroutines),
				fmt.Sprint(r.Nodes),
				fmt.Sprint(r.Edges),
				fmt.Sprint(r.NsPerQuery),
				fmt.Sprintf("%.0f", r.QueriesPerSec),
			})
		}
		fmt.Println(st.Format())
	}
	if jsonPath != "" {
		if err := bench.WritePerfJSON(rep, jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: perf: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
}
