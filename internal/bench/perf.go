package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/gen"
)

// rawTripleBytes is the uncompressed cost of one rank-2 edge (two
// int32 endpoints plus an int32 label), the denominator of the
// compression ratio reported in perf results.
const rawTripleBytes = 12

// PerfResult is one dataset's perf measurement: compression quality
// (encoded size, bits per edge, ratio against raw triples) plus the
// compressor's cost profile (wall time, bytes and allocations per
// run) as measured by the standard benchmark harness.
type PerfResult struct {
	Dataset      string  `json:"dataset"`
	Scale        int     `json:"scale"`
	Workers      int     `json:"workers"`
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	EncodedBytes int     `json:"encoded_bytes"`
	BitsPerEdge  float64 `json:"bits_per_edge"`
	Ratio        float64 `json:"compression_ratio"`
	NsPerOp      int64   `json:"ns_per_op"`
	WallMsPerOp  float64 `json:"wall_ms_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

// PerfReport is the machine-readable perf trajectory point cmd/benchall
// emits (BENCH_<n>.json): one PerfResult per dataset plus enough
// environment metadata to compare points across PRs.
type PerfReport struct {
	Benchmark string       `json:"benchmark"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Timestamp string       `json:"timestamp"`
	Results   []PerfResult `json:"results"`
	// Serving holds the concurrent shared-engine query measurements
	// (ServePerf), when the run asked for them.
	Serving []ServeResult `json:"serving,omitempty"`
}

// PerfDatasets is the default dataset set for the perf suite: the
// medium generator graphs BenchmarkCompress tracks, one per workload
// family (network, RDF, version).
var PerfDatasets = []string{"ca-grqc", "rdf-types-ru", "dblp60-70"}

// Perf measures gRePair end to end on the named datasets and returns
// the report, one PerfResult per (dataset, worker count) pair.
// Compression output metrics come from one verified run; cost metrics
// come from testing.Benchmark so they are comparable to
// `go test -bench BenchmarkCompress`. workers follows Options.Workers
// (0/1 = sequential; >1 = sharded); nil means sequential only.
func Perf(datasets []string, scale int, workers []int, progress func(format string, args ...any)) (*PerfReport, error) {
	if progress == nil {
		progress = func(string, ...any) {}
	}
	if len(workers) == 0 {
		workers = []int{0}
	}
	rep := &PerfReport{
		Benchmark: "compress",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, name := range datasets {
		d, err := gen.Generate(name, scale)
		if err != nil {
			return nil, err
		}
		edges := d.Graph.NumEdges()
		for _, w := range workers {
			opts := core.DefaultOptions()
			opts.Workers = w
			res, err := core.Compress(d.Graph, d.Labels, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: perf %s: %w", name, err)
			}
			_, sz, err := encoding.Encode(res.Grammar)
			if err != nil {
				return nil, fmt.Errorf("bench: perf %s: encode: %w", name, err)
			}
			progress("perf %s workers=%d: measuring (%d nodes, %d edges)", name, w, d.Graph.NumNodes(), edges)
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Compress(d.Graph, d.Labels, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			rep.Results = append(rep.Results, PerfResult{
				Dataset:      name,
				Scale:        scale,
				Workers:      w,
				Nodes:        d.Graph.NumNodes(),
				Edges:        edges,
				EncodedBytes: sz.TotalBytes(),
				BitsPerEdge:  BPE(sz.TotalBytes(), edges),
				Ratio:        float64(sz.TotalBytes()) / float64(rawTripleBytes*edges),
				NsPerOp:      br.NsPerOp(),
				WallMsPerOp:  float64(br.NsPerOp()) / 1e6,
				BytesPerOp:   br.AllocedBytesPerOp(),
				AllocsPerOp:  br.AllocsPerOp(),
			})
		}
	}
	return rep, nil
}

// WritePerfJSON writes the report as indented JSON to path.
func WritePerfJSON(rep *PerfReport, path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
