// Command gquery runs queries directly on a compressed grammar file
// (paper Sec. V), without decompressing the graph.
//
// Usage:
//
//	gquery -q reach -from 3 -to 17 file.grpr
//	gquery -q out -from 3 file.grpr
//	gquery -q in -from 3 file.grpr
//	gquery -q components file.grpr
//	gquery -q degrees file.grpr
//
// -timeout bounds the whole run (decode, engine construction, and the
// query itself); an expired deadline surfaces as a canceled error.
// The archive is loaded by serve.Load, the loader the server's
// reload uses too: sealed archives (grepair -seal) are verified
// before decode, and -max-nodes/-max-edges reject bomb archives
// analytically before materialization.
//
// Serve mode keeps the compiled engine resident and answers queries
// over HTTP from any number of concurrent clients (see serve.go for
// the protocol):
//
//	gquery -serve :8080 -reqtimeout 2s -max-inflight 64 file.grpr
//
// The engine is compiled once, every query layer included, before the
// server accepts traffic.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"graphrepair/internal/govern"
	"graphrepair/internal/query"
	"graphrepair/internal/serve"
)

func main() {
	var (
		q           = flag.String("q", "", "query: reach|out|in|components|degrees")
		from        = flag.Int64("from", 0, "source node ID")
		to          = flag.Int64("to", 0, "target node ID (reach)")
		timeout     = flag.Duration("timeout", 0, "abort after this duration (0 = none)")
		serveAddr   = flag.String("serve", "", "serve queries over HTTP on this address (e.g. :8080)")
		reqTimeout  = flag.Duration("reqtimeout", 5*time.Second, "per-request deadline in -serve mode (0 = none)")
		maxInflight = flag.Int("max-inflight", 0, "in -serve mode, max concurrently executing queries (0 = 4×GOMAXPROCS); excess is queued briefly then shed with 429")
		maxNodes    = flag.Int64("max-nodes", 0, "reject archives deriving more than this many nodes (0 = unlimited)")
		maxEdges    = flag.Int64("max-edges", 0, "reject archives deriving more than this many edges (0 = unlimited)")
	)
	flag.Parse()
	if flag.NArg() != 1 || (*q == "" && *serveAddr == "") {
		fmt.Fprintln(os.Stderr, "usage: gquery -q <query> [-from N] [-to N] <file.grpr>")
		fmt.Fprintln(os.Stderr, "       gquery -serve <addr> [-reqtimeout D] [-max-inflight N] <file.grpr>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	lim := govern.Limits{MaxNodes: *maxNodes, MaxEdges: *maxEdges}
	var err error
	if *serveAddr != "" {
		err = runServe(flag.Arg(0), *serveAddr, serve.Config{
			ReqTimeout:  *reqTimeout,
			MaxInflight: *maxInflight,
			Limits:      lim,
		})
	} else {
		err = run(flag.Arg(0), *q, *from, *to, *timeout, lim)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gquery:", err)
		os.Exit(1)
	}
}

func run(path, q string, from, to int64, timeout time.Duration, lim govern.Limits) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	eng, err := serve.Load(ctx, path, lim)
	if err != nil {
		return err
	}
	switch q {
	case "reach":
		ok, err := eng.ReachableContext(ctx, from, to)
		if err != nil {
			return err
		}
		fmt.Printf("reachable(%d, %d) = %v\n", from, to, ok)
	case "out", "in":
		dir := query.Out
		if q == "in" {
			dir = query.In
		}
		nb, err := eng.NeighborsContext(ctx, from, dir)
		if err != nil {
			return err
		}
		fmt.Printf("%s-neighbors(%d) = %v\n", q, from, nb)
	case "components":
		fmt.Printf("weakly connected components = %d\n", eng.ComponentCount())
	case "degrees":
		for _, d := range []struct {
			name string
			dir  query.Direction
		}{{"out", query.Out}, {"in", query.In}, {"total", query.Both}} {
			mn, mx, err := eng.DegreeStats(d.dir)
			if err != nil {
				return err
			}
			fmt.Printf("%s degree: min=%d max=%d\n", d.name, mn, mx)
		}
	default:
		return fmt.Errorf("unknown query %q", q)
	}
	return nil
}
