// Command perfbench is the repository's end-to-end benchmark. For one
// workload it generates inputs from a seed, compresses each through
// the graphrepair facade, encodes and seals an archive, decompresses
// it and checks the graph, loads the archive into an in-process
// serve.Server configured like `gquery -serve`, and replays a fixed
// query list over loopback HTTP, checking every answer. The last line
// of standard output is one JSON object with the run's metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload network --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and why they are
// measured this way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"graphrepair/internal/gen"
	"graphrepair/internal/hypergraph"
)

const (
	warmupPerClass = 20 // requests per class replayed in the warm-up round
	minRounds      = 3  // timed rounds per run, at least

	// replayProcs is GOMAXPROCS while requests are replayed. With one
	// P the in-process client and server hand each request over by a
	// goroutine switch instead of an OS thread wake-up, which on a
	// shared 2-vCPU VM stalls for milliseconds often enough to decide
	// a p99. A versions reload under traffic runs with GOMAXPROCS
	// back at its default, so its time is its own work and not that
	// of the queries sharing one P with it.
	replayProcs = 1
)

// workload is one benchmark input family. A run generates `inputs`
// independent graphs from the seed, so a metric averages over several
// draws of the generator instead of resting on one; the perClass
// requests of each query class are split evenly over them.
type workload struct {
	name               string
	inputs             int
	perClass           int
	sharded            bool    // compress with Workers = NumCPU
	reloadUnderTraffic bool    // load_s is measured by reloads during the replay
	roundSeconds       float64 // --seconds per timed round
	generate           func(seed int64) *hypergraph.Graph
}

var workloads = []*workload{
	{name: "network", inputs: 8, perClass: 1000, roundSeconds: 3.75, generate: func(seed int64) *hypergraph.Graph {
		// ca-grqc at a quarter of its size (5,242 nodes, 28,980 edges).
		return gen.Coauthorship(5242/4, 28980/4, 4, seed)
	}},
	{name: "rdf", inputs: 1, perClass: 10000, roundSeconds: 3.75, generate: func(seed int64) *hypergraph.Graph {
		// rdf-types-ru at paper scale.
		return gen.RDFTypes(642310, 30, 1.0001, seed)
	}},
	{name: "versions", inputs: 8, perClass: 6000, sharded: true, reloadUnderTraffic: true, roundSeconds: 3, generate: func(seed int64) *hypergraph.Graph {
		// dblp60-70: eleven yearly snapshots at paper scale.
		return gen.DBLPVersionGraph(11, gen.DefaultDBLPParams(seed))
	}},
}

// inputSeed derives the generator seed of a run's i-th input
// (splitmix64 of the run seed and the index).
func inputSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func main() {
	name := flag.String("workload", "", "workload: network, rdf or versions")
	seed := flag.Int64("seed", 1, "seed the inputs and query lists are drawn from")
	seconds := flag.Float64("seconds", 10, "nominal measuring time; sets the number of rounds, not the request counts")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload network|rdf|versions --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w *workload, seed int64, seconds float64, traced bool) error {
	ctx := context.Background()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: generate the run's inputs, then note the invariants their
	// decompressions must reproduce.
	var ins []input
	settle()
	t0 := time.Now()
	for i := range w.inputs {
		s := inputSeed(seed, i)
		ins = append(ins, input{seed: s, g: w.generate(s)})
	}
	setups := []time.Duration{time.Since(t0)}
	for i := range ins {
		ls := ins[i].g.Labels()
		ins[i].terminals, ins[i].fp = ls[len(ls)-1], fingerprintOf(ins[i].g)
	}

	// Rounds: every input goes through the whole pipeline once per
	// round, so each metric's samples are spread over the run instead
	// of bunched in one stretch of it.
	rounds := max(minRounds, int(math.Round(seconds/w.roundSeconds)))
	if traced {
		// A traced run takes every round twice; half as many rounds
		// keep it about as long, with the same requests per class.
		rounds = max(minRounds, rounds/2)
	}
	var runs []*inputRun
	for i, in := range ins {
		runs = append(runs, newInputRun(w, in, i, dir, rounds))
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	regens, err := runRounds(ctx, w, runs, rounds, tr)
	setups = append(setups, regens...)
	for _, ir := range runs {
		if cerr := ir.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}

	out := result{Correct: true}
	var inputs []map[string]int
	for _, ir := range runs {
		for _, c := range ir.checks {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
		}
		st := ir.srv.Stats()
		failed := len(ir.plain.replay.failures) + len(ir.traced.replay.failures) + len(ir.checks) +
			int(st.Shed+st.Panics+st.QueryErrors+st.WriteErrors+st.ReloadFailures)
		out.Attempted += ir.ops
		out.Failed += failed
		out.Correct = out.Correct && failed == 0
		inputs = append(inputs, map[string]int{
			"nodes": ir.in.g.NumNodes(), "edges": ir.in.g.NumEdges(),
			"rules": ir.gr.NumRules(), "start_edges": ir.gr.Start.NumEdges(),
		})
	}
	if traced {
		out.Metrics = layerMetrics(runs, tr)
		if err := tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))); err != nil {
			return err
		}
	} else {
		out.Metrics = endToEndMetrics(runs, median(setups))
	}

	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	envLine, err := json.Marshal(map[string]any{"env": map[string]any{
		"workload": w.name, "seed": seed, "trace": traced, "rounds": rounds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(), "go": runtime.Version(),
		"inputs": inputs,
	}})
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	fmt.Println(string(line))
	return nil
}

// runRounds runs the warm-up round and the timed rounds over every
// input; with a tracer, each round runs untraced and then traced. Each
// timed round starts by generating the inputs again and returns the
// time that took, so the set-up samples are spread over the run like
// every other metric's.
func runRounds(ctx context.Context, w *workload, runs []*inputRun, rounds int, tr *tracer) ([]time.Duration, error) {
	var setups []time.Duration
	for r := 0; r <= rounds; r++ {
		if r > 0 {
			setups = append(setups, regenerate(w, runs))
		}
		for _, ir := range runs {
			if err := ir.round(ctx, r, nil); err != nil {
				return setups, fmt.Errorf("%s input %d (seed %d) round %d: %w", w.name, ir.idx, ir.in.seed, r, err)
			}
			if tr == nil {
				continue
			}
			if err := ir.round(ctx, r, tr); err != nil {
				return setups, fmt.Errorf("%s input %d (seed %d) traced round %d: %w", w.name, ir.idx, ir.in.seed, r, err)
			}
		}
	}
	return setups, nil
}

// regenerate generates every input again from its seed and returns the
// time taken. The round then compresses the new graphs, so the check
// that every round reproduces round 0's archive also checks that the
// generator is deterministic.
func regenerate(w *workload, runs []*inputRun) time.Duration {
	settle()
	t0 := time.Now()
	for _, ir := range runs {
		ir.in.g = w.generate(ir.in.seed)
	}
	return time.Since(t0)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finite maps a percentile over failed requests (+Inf) to the largest
// float, which JSON can carry and no limit accepts.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// meanOf averages f over the inputs' samples.
func meanOf(runs []*inputRun, f func(*inputRun) float64) float64 {
	var s float64
	for _, ir := range runs {
		s += f(ir)
	}
	return s / float64(len(runs))
}

// medianSec is a mean over inputs of each input's median duration.
func medianSec(runs []*inputRun, f func(*inputRun) []time.Duration) float64 {
	return meanOf(runs, func(ir *inputRun) float64 { return median(f(ir)).Seconds() })
}

// medianCompress is each input's median compression by time.
func medianCompress(s *samples) compressRep {
	c := slices.Clone(s.compress)
	slices.SortFunc(c, func(a, b compressRep) int { return int(a.d - b.d) })
	return c[(len(c)-1)/2]
}

func endToEndMetrics(runs []*inputRun, setup time.Duration) map[string]metric {
	var bits, edges, requests float64
	var replay time.Duration
	var lat latencies
	for _, ir := range runs {
		bits += float64(8 * len(ir.payload))
		edges += float64(ir.in.g.NumEdges())
		requests += float64(ir.plain.replay.requests)
		replay += ir.plain.replay.wall
		lat.add(ir.plain.replay.lat)
	}
	m := map[string]metric{
		"setup_s":    {setup.Seconds(), "s"},
		"compress_s": {meanOf(runs, func(ir *inputRun) float64 { return medianCompress(&ir.plain).d.Seconds() }), "s"},
		"compress_alloc_mb": {meanOf(runs, func(ir *inputRun) float64 {
			return float64(medianCompress(&ir.plain).allocBytes) / (1 << 20)
		}), "MB"},
		"bits_per_edge":  {bits / edges, "bits"},
		"decompress_s":   {medianSec(runs, func(ir *inputRun) []time.Duration { return ir.plain.decompress }), "s"},
		"load_s":         {medianSec(runs, func(ir *inputRun) []time.Duration { return ir.plain.load }), "s"},
		"engine_heap_mb": {meanOf(runs, func(ir *inputRun) float64 { return float64(ir.heap) / (1 << 20) }), "MB"},
		"query_qps":      {requests / replay.Seconds(), "1/s"},
	}
	for c, name := range classNames {
		m[name+"_p50_ms"] = metric{finite(percentile(lat[c], 0.50)), "ms"}
	}
	return m
}

func layerMetrics(runs []*inputRun, tr *tracer) map[string]metric {
	count := func(f func(*inputRun) float64) metric { return metric{meanOf(runs, f), "count"} }
	secs := func(f func(*samples) []time.Duration) metric {
		return metric{medianSec(runs, func(ir *inputRun) []time.Duration { return f(&ir.traced) }), "s"}
	}
	var rounds, kept float64
	var engineLat latencies
	var nbrIDs, handler, served, rtt, timed, bytes float64
	var plainWall, tracedWall time.Duration
	for _, ir := range runs {
		rounds += float64(ir.stats.Rounds)
		kept += float64(ir.stats.Rounds - ir.stats.RulesPruned)
		engineLat.add(ir.traced.engineLat)
		nbrIDs += float64(ir.traced.nbrIDs)
		handler += ir.plain.replay.handlerSec
		served += float64(ir.plain.replay.served)
		rtt += ir.plain.replay.rtt.Seconds()
		timed += float64(ir.plain.replay.requests)
		bytes += float64(ir.traced.replay.bytes) / float64(ir.traced.replay.requests)
		plainWall += ir.plain.wall
		tracedWall += ir.traced.wall
	}
	m := map[string]metric{
		"core.rounds":             count(func(ir *inputRun) float64 { return float64(ir.stats.Rounds) }),
		"core.replacements":       count(func(ir *inputRun) float64 { return float64(ir.stats.Replacements) }),
		"core.virtual_edges":      count(func(ir *inputRun) float64 { return float64(ir.stats.VirtualEdges) }),
		"core.skipped_duplicates": count(func(ir *inputRun) float64 { return float64(ir.stats.SkippedDuplicates) }),
		"core.fp_classes":         count(func(ir *inputRun) float64 { return float64(ir.stats.FPClasses) }),
		"core.rules_kept_ratio":   {kept / rounds, "ratio"},
		"core.gc_cycles":          count(func(ir *inputRun) float64 { return float64(medianCompress(&ir.traced).gcCycles) }),
		"core.gc_pause_ms": {meanOf(runs, func(ir *inputRun) float64 {
			return float64(medianCompress(&ir.traced).gcPause) / float64(time.Millisecond)
		}), "ms"},
		"core.alloc_objects":        count(func(ir *inputRun) float64 { return float64(medianCompress(&ir.traced).allocObjects) }),
		"order.refine_s":            secs(func(s *samples) []time.Duration { return s.refine }),
		"encoding.encode_s":         secs(func(s *samples) []time.Duration { return s.encode }),
		"encoding.seal_s":           secs(func(s *samples) []time.Duration { return s.seal }),
		"encoding.unseal_s":         secs(func(s *samples) []time.Duration { return s.unseal }),
		"encoding.decode_s":         secs(func(s *samples) []time.Duration { return s.decode }),
		"encoding.rule_bits":        {meanOf(runs, func(ir *inputRun) float64 { return float64(ir.sizes.Rules) }), "bits"},
		"encoding.start_bits":       {meanOf(runs, func(ir *inputRun) float64 { return float64(ir.sizes.StartGraph) }), "bits"},
		"grammar.derive_s":          secs(func(s *samples) []time.Duration { return s.derive }),
		"grammar.rules":             count(func(ir *inputRun) float64 { return float64(ir.gr.NumRules()) }),
		"grammar.size":              count(func(ir *inputRun) float64 { return float64(ir.gr.Size()) }),
		"grammar.height":            count(func(ir *inputRun) float64 { return float64(ir.gr.Height()) }),
		"grammar.start_edges":       count(func(ir *inputRun) float64 { return float64(ir.gr.Start.NumEdges()) }),
		"query.compile_s":           secs(func(s *samples) []time.Duration { return s.compile }),
		"query.precompute_s":        secs(func(s *samples) []time.Duration { return s.precomp }),
		"query.nbr_ids_mean":        {nbrIDs / float64(len(engineLat[classNbr])), "count"},
		"serve.handler_mean_ms":     {1000 * handler / served, "ms"},
		"serve.transport_mean_ms":   {1000 * (rtt/timed - handler/served), "ms"},
		"serve.response_bytes_mean": {bytes / float64(len(runs)), "bytes"},
		"serve.reload_s":            secs(func(s *samples) []time.Duration { return s.load }),
		"serve.reloads":             count(func(ir *inputRun) float64 { return float64(ir.srv.Stats().Reloads) }),
		"serve.gc_cycles":           count(func(ir *inputRun) float64 { return float64(ir.traced.serveGC) }),
		"serve.shed":                count(func(ir *inputRun) float64 { return float64(ir.srv.Stats().Shed) }),
		"serve.query_errors":        count(func(ir *inputRun) float64 { return float64(ir.srv.Stats().QueryErrors) }),
		"serve.panics":              count(func(ir *inputRun) float64 { return float64(ir.srv.Stats().Panics) }),
		"serve.reload_failures":     count(func(ir *inputRun) float64 { return float64(ir.srv.Stats().ReloadFailures) }),
		"trace.overhead_s":          {(tracedWall - plainWall).Seconds(), "s"},
		"trace.overhead_pct":        {100 * (tracedWall - plainWall).Seconds() / plainWall.Seconds(), "%"},
		"trace.spans":               {float64(len(tr.spans)), "count"},
	}
	for c, name := range classNames {
		m["query."+name+"_p50_ms"] = metric{percentile(engineLat[c], 0.50), "ms"}
		m["query."+name+"_p99_ms"] = metric{percentile(engineLat[c], 0.99), "ms"}
	}
	// The HTTP p99s, from the untraced pass. They are per-layer metrics
	// because they are not steady enough for a bound: the slowest 1% of
	// a class is decided by the GC cycles and host stalls it meets, and
	// one busy stretch of the host moved a p99 up to 3× between runs of
	// the same code.
	var httpLat latencies
	for _, ir := range runs {
		httpLat.add(ir.plain.replay.lat)
	}
	for c, name := range classNames {
		m["serve."+name+"_p99_ms"] = metric{finite(percentile(httpLat[c], 0.99)), "ms"}
	}
	for layer, lt := range tr.layers() {
		m["trace."+layer+".busy_s"] = metric{lt.busy.Seconds(), "s"}
		m["trace."+layer+".self_s"] = metric{lt.self.Seconds(), "s"}
	}
	return m
}
