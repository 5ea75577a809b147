package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"graphrepair"
	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
	"graphrepair/internal/order"
	"graphrepair/internal/query"
	"graphrepair/internal/serve"
)

// input is one generated graph of a run, with the invariants its
// decompression must reproduce.
type input struct {
	seed      int64
	g         *hypergraph.Graph
	terminals hypergraph.Label
	fp        fingerprint
}

// compressRep is one timed compression with the runtime's view of it.
type compressRep struct {
	d            time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint32
	gcPause      time.Duration
}

// samples collects one input's timed repetitions, one per round.
type samples struct {
	compress                                         []compressRep
	encode, seal, decompress, load                   []time.Duration
	refine, unseal, decode, derive, compile, precomp []time.Duration
	replay                                           httpReplay // merged over rounds
	engineLat                                        latencies
	nbrIDs                                           int
	serveGC                                          uint32
	wall                                             time.Duration // end-to-end steps only
}

// inputRun is one input's pipeline state across the rounds of a run:
// its archive file, and a server loaded from it that stays up for the
// whole run behind its own loopback listener.
type inputRun struct {
	w       *workload
	in      input
	idx     int
	path    string
	opts    graphrepair.Options
	payload []byte // round 0's archive; later rounds must reproduce it
	oracle  *oracle
	stats   core.Stats
	sizes   encoding.Sizes
	gr      *grammar.Grammar
	heap    int64
	srv     *serve.Server
	client  *http.Client
	base    string
	stop    context.CancelFunc
	served  chan error
	warm    []request
	chunks  [][]request // chunks[r-1] is replayed in round r
	reqID   int64       // span request id of chunks[0][0]
	plain   samples     // untraced
	traced  samples     // traced, in a traced run
	checks  []error
	ops     int
}

func newInputRun(w *workload, in input, idx int, dir string, rounds int) *inputRun {
	ir := &inputRun{w: w, in: in, idx: idx, path: filepath.Join(dir, fmt.Sprintf("input-%d.grsl", idx)), opts: graphrepair.DefaultOptions()}
	if w.sharded {
		ir.opts.Workers = runtime.NumCPU()
	}
	rng := rand.New(rand.NewSource(in.seed))
	n := int64(in.g.NumNodes())
	ir.warm = requestList(rng, n, warmupPerClass)
	perRound := (w.perClass/w.inputs + rounds - 1) / rounds
	for range rounds {
		ir.chunks = append(ir.chunks, requestList(rng, n, perRound))
	}
	ir.reqID = int64(idx)*int64(rounds*perRound*int(numClasses)) + 1
	return ir
}

// median returns the median of ds (the lower middle for even counts).
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// settle runs a GC and returns the freed memory to the OS, so no timed
// section shares the CPU with the runtime scavenging the garbage of the
// one before it (an rdf compression leaves ≈700 MB), and every timed
// section pays for the memory it touches, as a fresh process would.
func settle() { debug.FreeOSMemory() }

// call times f after settle, inside a span.
func call(tr *tracer, parent int32, layer, name string, f func() error) (time.Duration, error) {
	settle()
	sp := tr.begin(parent, layer, name, 0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// round takes the input once through compress → archive → decompress
// → load → replay. Round 0 is the warm-up: it starts the server and
// replays the warm-up requests, and none of its timings are kept. In a
// traced run each round runs twice, untraced and then traced, and the
// traced pass also times each layer on its own.
func (ir *inputRun) round(ctx context.Context, r int, tr *tracer) error {
	s := &ir.plain
	if tr != nil {
		s = &ir.traced
	}
	root := tr.begin(0, "bench", fmt.Sprintf("round %d input %d", r, ir.idx), 0)
	defer tr.end(root)
	keep := r > 0
	start := time.Now()

	var before, after runtime.MemStats
	settle()
	runtime.ReadMemStats(&before)
	sp := tr.begin(root, "core", "graphrepair.CompressContext", 0)
	t0 := time.Now()
	res, err := graphrepair.CompressContext(ctx, ir.in.g, ir.in.terminals, ir.opts)
	d := time.Since(t0)
	tr.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if keep {
		s.compress = append(s.compress, compressRep{
			d:            d,
			allocBytes:   after.TotalAlloc - before.TotalAlloc,
			allocObjects: after.Mallocs - before.Mallocs,
			gcCycles:     after.NumGC - before.NumGC,
			gcPause:      time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		})
	}

	var payload, sealed []byte
	var sizes encoding.Sizes
	dEnc, err := call(tr, root, "encoding", "graphrepair.Encode", func() (err error) {
		payload, sizes, err = graphrepair.Encode(res.Grammar)
		return err
	})
	if err != nil {
		return err
	}
	dSeal, _ := call(tr, root, "encoding", "encoding.Seal", func() error {
		sealed = encoding.Seal(payload)
		return nil
	})
	if err := os.WriteFile(ir.path, sealed, 0o644); err != nil {
		return err
	}
	var derived *hypergraph.Graph
	dDec, err := call(tr, root, "facade", "graphrepair.DecompressContext", func() (err error) {
		derived, err = graphrepair.DecompressContext(ctx, payload, graphrepair.Limits{})
		return err
	})
	if err != nil {
		return err
	}
	ir.ops += 4
	if keep {
		s.encode = append(s.encode, dEnc)
		s.seal = append(s.seal, dSeal)
		s.decompress = append(s.decompress, dDec)
	}
	if ir.payload == nil {
		ir.payload, ir.stats, ir.sizes, ir.gr = payload, res.Stats, sizes, res.Grammar
		if err := ir.in.fp.diff(fingerprintOf(derived)); err != nil {
			ir.checks = append(ir.checks, err)
		}
		ir.oracle = newOracle(derived)
	} else if !bytes.Equal(payload, ir.payload) {
		ir.checks = append(ir.checks, fmt.Errorf("round %d archive differs from round 0's", r))
	}

	if ir.srv == nil {
		if err := ir.startServer(ctx, tr, root); err != nil {
			return err
		}
	} else if !ir.w.reloadUnderTraffic {
		d, err := call(tr, root, "serve", "serve.Server.Reload", func() error { return ir.srv.Reload(ctx) })
		if err != nil {
			return err
		}
		ir.ops++
		if keep {
			s.load = append(s.load, d)
		}
	}
	if keep {
		s.wall += time.Since(start)
	}

	reqs, reqID, reloadAt := ir.warm, int64(0), -1
	if keep {
		reqs, reqID = ir.chunks[r-1], ir.reqID+int64((r-1)*len(ir.chunks[0]))
		if ir.w.reloadUnderTraffic {
			reloadAt = len(reqs) / 2
			ir.ops++
		}
	}
	phase := tr.begin(root, "bench", "replay http", 0)
	var gcBefore, gcAfter runtime.MemStats
	settle()
	runtime.ReadMemStats(&gcBefore)
	rep := replayHTTP(ctx, ir.client, ir.base, reqs, ir.srv, reloadAt, tr, phase, reqID)
	runtime.ReadMemStats(&gcAfter)
	tr.end(phase)
	ir.ops += len(reqs)
	for i, q := range reqs {
		if rep.failed[i] {
			continue // counted as a failed request
		}
		if err := ir.oracle.verify(q, rep.answers[i]); err != nil {
			ir.checks = append(ir.checks, err)
		}
	}
	if !keep {
		s.replay.failures = append(s.replay.failures, rep.failures...)
		return nil
	}
	s.wall += rep.wall
	s.serveGC += gcAfter.NumGC - gcBefore.NumGC
	s.load = append(s.load, rep.reloads...)
	s.replay.merge(rep)

	if tr != nil {
		phase = tr.begin(root, "bench", "layers", 0)
		defer tr.end(phase)
		if err := s.timeLayers(ctx, ir.in.g, payload, sealed, tr, phase); err != nil {
			return err
		}
		procs := runtime.GOMAXPROCS(replayProcs)
		lat, nbrIDs, err := replayEngine(ctx, ir.srv.Engine(), reqs, tr, phase, reqID)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return err
		}
		s.engineLat.add(lat)
		s.nbrIDs += nbrIDs
	}
	return nil
}

// startServer loads the archive into a server configured like
// `gquery -serve` (Precompute on, cache off, default admission, 5s
// request timeout), measures the heap the engine retains, and starts
// serving on a loopback port.
func (ir *inputRun) startServer(ctx context.Context, tr *tracer, parent int32) error {
	ir.srv = serve.New(ir.path, serve.Config{
		ReqTimeout: 5 * time.Second,
		Engine:     query.EngineOptions{Precompute: true},
		Logf:       func(string, ...any) {},
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := call(tr, parent, "serve", "serve.Server.Reload", func() error { return ir.srv.Reload(ctx) }); err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ir.heap = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ir.ops++

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, stop := context.WithCancel(ctx)
	ir.stop, ir.served = stop, make(chan error, 1)
	go func() { ir.served <- ir.srv.Serve(sctx, ln) }()
	// One connection: the callers are tools that wait for each answer.
	ir.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	ir.base = "http://" + ln.Addr().String()
	return nil
}

// close stops the server and waits until it has shut down.
func (ir *inputRun) close() error {
	if ir.stop == nil { // never started serving
		return nil
	}
	ir.client.CloseIdleConnections()
	ir.stop()
	if err := <-ir.served; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// timeLayers times each layer's own entry point, outside the
// end-to-end pipeline: the order refinement the compressor starts
// with, the archive's unseal and decode, derivation, and engine
// compilation with and without precomputation.
func (s *samples) timeLayers(ctx context.Context, g *hypergraph.Graph, payload, sealed []byte, tr *tracer, parent int32) error {
	d, err := call(tr, parent, "order", "order.Compute", func() error {
		order.Compute(g, order.FP, 0)
		return nil
	})
	s.refine = append(s.refine, d)
	if d, err = call(tr, parent, "encoding", "encoding.Unseal", func() error {
		_, err := encoding.Unseal(sealed)
		return err
	}); err != nil {
		return err
	}
	s.unseal = append(s.unseal, d)
	var gr *grammar.Grammar
	if d, err = call(tr, parent, "encoding", "encoding.DecodeContext", func() (err error) {
		gr, err = encoding.DecodeContext(ctx, payload, graphrepair.Limits{})
		return err
	}); err != nil {
		return err
	}
	s.decode = append(s.decode, d)
	if d, err = call(tr, parent, "grammar", "grammar.DeriveContext", func() error {
		_, err := gr.DeriveContext(ctx, graphrepair.Limits{})
		return err
	}); err != nil {
		return err
	}
	s.derive = append(s.derive, d)
	compile, err := call(tr, parent, "query", "query.NewWithOptions", func() error {
		_, err := query.NewWithOptions(ctx, gr, query.EngineOptions{})
		return err
	})
	if err != nil {
		return err
	}
	s.compile = append(s.compile, compile)
	if d, err = call(tr, parent, "query", "query.NewWithOptions precompute", func() error {
		_, err := query.NewWithOptions(ctx, gr, query.EngineOptions{Precompute: true})
		return err
	}); err != nil {
		return err
	}
	s.precomp = append(s.precomp, d-compile)
	return nil
}
