package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"graphrepair/internal/query"
	"graphrepair/internal/serve"
)

// class is a query class; latency percentiles are taken per class,
// never over the mix, because the classes' costs differ by orders of
// magnitude.
type class int

const (
	classReach class = iota
	classDist
	classNbr
	numClasses
)

var classNames = [numClasses]string{"reach", "dist", "nbr"}

// Span names per class, built once so the untraced replay builds none.
var (
	httpSpanNames   = [numClasses]string{"GET /query reach", "GET /query dist", "GET /query both"}
	engineSpanNames = [numClasses]string{"query.Engine.Reachable", "query.Engine.Distance", "query.Engine.Neighbors"}
)

type request struct {
	class class
	u, v  int64
}

func (r request) path() string {
	switch r.class {
	case classReach:
		return fmt.Sprintf("/query?q=reach&from=%d&to=%d", r.u, r.v)
	case classDist:
		return fmt.Sprintf("/query?q=dist&from=%d&to=%d", r.u, r.v)
	default:
		return fmt.Sprintf("/query?q=both&from=%d", r.u)
	}
}

type answer struct {
	reachable bool
	distance  int64
	neighbors []int64
}

// requestList draws perClass requests of each class over uniformly
// random node IDs 1..n, in random order. A fixed rotation would always
// put the same class after dist, the class whose allocations start
// most GC cycles, and so hand that class most of the GC work.
func requestList(rng *rand.Rand, n int64, perClass int) []request {
	out := make([]request, 0, int(numClasses)*perClass)
	for range perClass {
		out = append(out,
			request{classReach, 1 + rng.Int63n(n), 1 + rng.Int63n(n)},
			request{classDist, 1 + rng.Int63n(n), 1 + rng.Int63n(n)},
			request{classNbr, 1 + rng.Int63n(n), 0})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// latencies holds per-class samples in milliseconds; a failed request
// is +Inf, so it counts as missing every percentile.
type latencies [numClasses][]float64

func (l *latencies) add(o latencies) {
	for c := range l {
		l[c] = append(l[c], o[c]...)
	}
}

// percentile is the nearest-rank percentile: with 1000 samples, p99 is
// the 990th smallest and 10 samples lie beyond it.
func percentile(samples []float64, p float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// httpReplay is the outcome of one closed-loop HTTP replay.
type httpReplay struct {
	lat        latencies
	answers    []answer // answers[i] is valid unless failed[i]
	failed     []bool
	failures   []error // non-200 or unparsable responses
	requests   int
	bytes      int64
	rtt        time.Duration // sum of round trips
	wall       time.Duration
	served     uint64  // requests the server counted during the replay
	handlerSec float64 // their summed handler time, from the server's stats
	reloads    []time.Duration
}

// merge adds another replay's samples; answers are checked per replay
// and not kept.
func (h *httpReplay) merge(o httpReplay) {
	h.lat.add(o.lat)
	h.requests += o.requests
	h.failures = append(h.failures, o.failures...)
	h.bytes += o.bytes
	h.rtt += o.rtt
	h.wall += o.wall
	h.served += o.served
	h.handlerSec += o.handlerSec
}

// spanReq is the span request id of the i-th request of a replay whose
// first request has id base. Base 0 marks requests that are not part
// of the timed list (the warm-up); their spans all get id 0.
func spanReq(base int64, i int) int64 {
	if base == 0 {
		return 0
	}
	return base + int64(i)
}

// replayHTTP sends reqs one at a time over client's single connection,
// waiting for each answer before the next, with GOMAXPROCS at
// replayProcs. When reloadAt >= 0, a second goroutine calls srv.Reload
// once the replay reaches request reloadAt, while the replay keeps
// going. GOMAXPROCS is back at its previous value while that reload
// runs, so the reload has a P of its own, as under `gquery -serve`.
func replayHTTP(ctx context.Context, client *http.Client, base string, reqs []request, srv *serve.Server, reloadAt int, tr *tracer, parent int32, reqID int64) httpReplay {
	res := httpReplay{requests: len(reqs), answers: make([]answer, len(reqs)), failed: make([]bool, len(reqs))}
	procs := runtime.GOMAXPROCS(replayProcs)
	defer runtime.GOMAXPROCS(procs)
	var wg sync.WaitGroup
	st0 := srv.Stats()
	start := time.Now()
	for i, r := range reqs {
		if i == reloadAt {
			runtime.GOMAXPROCS(procs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := tr.begin(parent, "serve", "serve.Server.Reload", 0)
				t0 := time.Now()
				err := srv.Reload(ctx)
				d := time.Since(t0)
				tr.end(sp)
				runtime.GOMAXPROCS(replayProcs)
				if err == nil { // failures are counted by the server's own stats
					res.reloads = append(res.reloads, d)
				}
			}()
		}
		sp := tr.begin(parent, "serve", httpSpanNames[r.class], spanReq(reqID, i))
		t0 := time.Now()
		a, n, err := get(ctx, client, base+r.path())
		d := time.Since(t0)
		tr.end(sp)
		res.rtt += d
		res.bytes += n
		if err != nil {
			res.failed[i] = true
			res.failures = append(res.failures, fmt.Errorf("%s: %w", r.path(), err))
			res.lat[r.class] = append(res.lat[r.class], math.Inf(1))
			continue
		}
		res.answers[i] = a
		res.lat[r.class] = append(res.lat[r.class], ms(d))
	}
	res.wall = time.Since(start)
	wg.Wait()
	st1 := srv.Stats()
	res.served = st1.Served - st0.Served
	res.handlerSec = st1.LatencySumSeconds - st0.LatencySumSeconds
	return res
}

// get performs one query and parses its answer.
func get(ctx context.Context, client *http.Client, url string) (answer, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return answer{}, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return answer{}, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, int64(len(body)), err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, int64(len(body)), fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, int64(len(body)), fmt.Errorf("unparsable response: %w", err)
	}
	a := answer{neighbors: r.Neighbors}
	switch {
	case r.Reachable != nil:
		a.reachable = *r.Reachable
	case r.Distance != nil:
		a.distance = *r.Distance
	case r.Query != "both":
		return answer{}, int64(len(body)), fmt.Errorf("response to %q carries no answer", r.Query)
	}
	if a.neighbors == nil {
		a.neighbors = []int64{}
	}
	return a, int64(len(body)), nil
}

// replayEngine replays reqs directly on the engine, without HTTP; its
// spans share the request ids of the HTTP replay.
func replayEngine(ctx context.Context, eng *query.Engine, reqs []request, tr *tracer, parent int32, reqID int64) (lat latencies, nbrIDs int, err error) {
	for i, r := range reqs {
		sp := tr.begin(parent, "query", engineSpanNames[r.class], spanReq(reqID, i))
		t0 := time.Now()
		switch r.class {
		case classReach:
			_, err = eng.ReachableContext(ctx, r.u, r.v)
		case classDist:
			_, err = eng.DistanceContext(ctx, r.u, r.v)
		default:
			var ns []int64
			ns, err = eng.NeighborsContext(ctx, r.u, query.Both)
			nbrIDs += len(ns)
		}
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return lat, nbrIDs, fmt.Errorf("engine %s: %w", classNames[r.class], err)
		}
		lat[r.class] = append(lat[r.class], ms(d))
	}
	return lat, nbrIDs, nil
}
