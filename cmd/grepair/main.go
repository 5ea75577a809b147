// Command grepair compresses and decompresses graphs with gRePair.
//
// Usage:
//
//	grepair -c [-maxrank 4] [-order fp] [-workers N] [-seal] [-o out.grpr] in.graph
//	grepair -d [-max-nodes N] [-max-edges N] [-o out.graph] in.grpr
//	grepair -seal [-o out.grpr] in.grpr
//	grepair -stats in.grpr
//
// Graphs use the text format of internal/graphio; compressed files use
// the paper's binary grammar format. Because SL-HR grammars are
// exponentially succinct, decompressing an untrusted file should be
// bounded with -max-nodes/-max-edges (bombs are rejected analytically,
// before materialization) and -timeout.
//
// -seal wraps the encoded grammar in a self-verifying container
// (per-chunk CRC32s; see internal/encoding's seal format) so loaders
// detect bit rot before decoding. With -c it seals the fresh output;
// alone it seals an existing plain archive after verifying it still
// decodes. -d and -stats read sealed and plain files alike through
// the library's one archive reader; -stats reports the file as
// stored, so for a sealed file "file bytes" and "bits per edge"
// count the container too.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/govern"
	"graphrepair/internal/graphio"
	"graphrepair/internal/order"
)

var orderNames = map[string]order.Kind{
	"natural": order.Natural, "bfs": order.BFS, "dfs": order.DFS,
	"random": order.Random, "fp0": order.FP0, "fp": order.FP,
}

// options collects everything main parses from the command line;
// run takes it whole so tests can drive the tool in-process.
type options struct {
	compress   bool
	decompress bool
	stats      bool
	seal       bool
	out        string
	maxRank    int
	orderName  string
	seed       int64
	noVirtual  bool
	noPrune    bool
	workers    int
	timeout    time.Duration
	maxNodes   int64
	maxEdges   int64
}

func main() {
	var o options
	flag.BoolVar(&o.compress, "c", false, "compress a text graph into a grammar file")
	flag.BoolVar(&o.decompress, "d", false, "decompress a grammar file into a text graph")
	flag.BoolVar(&o.stats, "stats", false, "print statistics of a grammar file")
	flag.BoolVar(&o.seal, "seal", false, "seal the output (-c) or an existing archive in a self-verifying container")
	flag.StringVar(&o.out, "o", "", "output file (default stdout)")
	flag.IntVar(&o.maxRank, "maxrank", 4, "maximal digram rank")
	flag.StringVar(&o.orderName, "order", "fp", "node order: natural|bfs|dfs|random|fp0|fp")
	flag.Int64Var(&o.seed, "seed", 0, "seed for the random order")
	flag.BoolVar(&o.noVirtual, "novirtual", false, "disable the virtual-edge stage")
	flag.BoolVar(&o.noPrune, "noprune", false, "disable pruning")
	flag.IntVar(&o.workers, "workers", 0, "parallel compression workers (0/1 = sequential; >1 shards the input, output differs from sequential but not across worker counts)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort after this duration (0 = none)")
	flag.Int64Var(&o.maxNodes, "max-nodes", 0, "reject decompression beyond this many derived nodes (0 = unlimited)")
	flag.Int64Var(&o.maxEdges, "max-edges", 0, "reject decompression beyond this many derived edges (0 = unlimited)")
	flag.Parse()
	if flag.NArg() != 1 || (!o.compress && !o.decompress && !o.stats && !o.seal) {
		fmt.Fprintln(os.Stderr, "usage: grepair -c|-d|-stats|-seal [flags] <file>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "grepair:", err)
		os.Exit(1)
	}
}

func run(in string, o options) error {
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	lim := govern.Limits{MaxNodes: o.maxNodes, MaxEdges: o.maxEdges}

	// The output file is created lazily, once the work has succeeded:
	// a run that times out or hits a limit must not clobber an
	// existing file or leave a fresh empty one behind.
	output := os.Stdout
	openOutput := func() error {
		if o.out == "" {
			return nil
		}
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		output = f
		return nil
	}
	defer func() {
		if output != os.Stdout {
			output.Close()
		}
	}()

	switch {
	case o.compress:
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		g, labels, skipped, err := graphio.Read(f)
		if err != nil {
			return err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "grepair: dropped %d self-loop/duplicate edges\n", skipped)
		}
		kind, ok := orderNames[o.orderName]
		if !ok {
			return fmt.Errorf("unknown order %q", o.orderName)
		}
		opts := core.Options{
			MaxRank:           o.maxRank,
			Order:             kind,
			Seed:              o.seed,
			ConnectComponents: !o.noVirtual,
			SkipPrune:         o.noPrune,
			Workers:           o.workers,
		}
		res, err := core.CompressContext(ctx, g, labels, opts)
		if err != nil {
			return err
		}
		buf, sz, err := encoding.Encode(res.Grammar)
		if err != nil {
			return err
		}
		if o.seal {
			buf = encoding.Seal(buf)
		}
		if err := openOutput(); err != nil {
			return err
		}
		if _, err := output.Write(buf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "grepair: %d nodes, %d edges -> %d bytes (%.2f bpe), %d rules, %d pruned\n",
			g.NumNodes(), g.NumEdges(), sz.TotalBytes(),
			float64(sz.TotalBytes())*8/float64(g.NumEdges()),
			res.Grammar.NumRules(), res.Stats.RulesPruned)
		return nil

	case o.decompress:
		buf, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		g, err := encoding.DecodeContext(ctx, buf, lim)
		if err != nil {
			return err
		}
		derived, err := g.DeriveContext(ctx, lim)
		if err != nil {
			return err
		}
		if err := openOutput(); err != nil {
			return err
		}
		labels := g.Terminals
		return graphio.Write(output, derived, labels)

	case o.seal:
		// Standalone seal of an existing legacy archive. The payload is
		// verified to decode before sealing: a checksum over corrupt
		// bytes would only certify the corruption.
		buf, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		if encoding.IsSealed(buf) {
			return fmt.Errorf("%s is already sealed", in)
		}
		if _, err := encoding.DecodeContext(ctx, buf, lim); err != nil {
			return fmt.Errorf("refusing to seal: %w", err)
		}
		sealed := encoding.Seal(buf)
		if err := openOutput(); err != nil {
			return err
		}
		if _, err := output.Write(sealed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "grepair: sealed %d payload bytes into %d (%.2f%% overhead)\n",
			len(buf), len(sealed), float64(len(sealed)-len(buf))*100/float64(len(buf)))
		return nil

	default: // stats
		buf, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		g, err := encoding.DecodeContext(ctx, buf, lim)
		if err != nil {
			return err
		}
		if err := openOutput(); err != nil {
			return err
		}
		nodes, edges := g.DerivedSize()
		fmt.Fprintf(output, "file bytes:      %d\n", len(buf))
		fmt.Fprintf(output, "terminals:       %d\n", g.Terminals)
		fmt.Fprintf(output, "rules:           %d\n", g.NumRules())
		fmt.Fprintf(output, "grammar size:    %d (|G| = nodes+edges measure)\n", g.Size())
		fmt.Fprintf(output, "grammar height:  %d\n", g.Height())
		fmt.Fprintf(output, "start graph:     %d nodes, %d edges\n", g.Start.NumNodes(), g.Start.NumEdges())
		fmt.Fprintf(output, "derived graph:   %d nodes, %d edges\n", nodes, edges)
		fmt.Fprintf(output, "bits per edge:   %.2f\n", float64(len(buf))*8/float64(edges))
		return nil
	}
}
