// Package serve is the production serving layer over a compiled query
// engine (DESIGN.md §14). cmd/gquery's -serve mode is a thin shell
// over it. Four concerns, composed as middleware around the query
// handler:
//
//   - Admission control: a bounded in-flight semaphore with a short
//     deadline-aware wait queue; when the queue is also full the
//     request is shed with 429 and a Retry-After header instead of
//     piling onto a saturated engine.
//   - Panic isolation: a per-request recover middleware converts a
//     panicking handler into a 500, increments a counter, and keeps
//     the server alive — the serving-layer mirror of the facade's
//     recover backstop.
//   - Integrity: archives may be sealed (encoding.Seal); the load
//     path verifies the container before the decoder runs, so bit rot
//     is rejected with a typed govern.ErrCorrupt at load time, and a
//     bomb archive is rejected analytically against Config.Limits
//     before it can OOM the process.
//   - Hot reload: Reload re-reads, re-verifies and re-compiles the
//     archive off the request path, then swaps the engine pointer
//     atomically; in-flight requests drain on the engine they
//     started with, and a failed reload keeps the old engine serving.
//
// Query errors are classified against the govern taxonomy:
// ErrCanceled→503, ErrLimit→429, ErrCorrupt→500; only genuine input
// errors are 400s.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphrepair/internal/faultinject"
	"graphrepair/internal/govern"
	"graphrepair/internal/query"
)

// Config tunes a Server. The zero value serves with sane defaults:
// 4×GOMAXPROCS in-flight slots, an equal-depth wait queue, a 100ms
// queue wait, no resource limits, lazy memo layers.
type Config struct {
	// ReqTimeout bounds each query request (0 = none).
	ReqTimeout time.Duration
	// MaxInflight caps concurrently executing query requests
	// (<=0 → 4×GOMAXPROCS).
	MaxInflight int
	// QueueDepth caps requests waiting for an in-flight slot; arrivals
	// beyond it are shed immediately (<=0 → MaxInflight).
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed (<=0 → 100ms). The wait is also deadline-aware:
	// a request whose own deadline expires while queued is shed then.
	QueueWait time.Duration
	// Limits governs archive loading: MaxAllocBytes bounds decoder
	// allocations, MaxNodes/MaxEdges reject bomb archives analytically
	// (from rule sizes, before materialization) at load/reload time.
	Limits govern.Limits
	// Engine configures the compiled engine (Precompute, CacheSize).
	Engine query.EngineOptions
	// Logf receives operational log lines (reload outcomes). Nil logs
	// to stderr.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return c
}

// Server is a hardened HTTP query server over one archive file. It is
// constructed unloaded: Reload performs the initial load (callers
// treat that first error as fatal), after which /readyz flips to 200
// and Serve can take traffic.
type Server struct {
	cfg  Config
	path string

	// engine is the currently served compiled engine. Handlers load it
	// once at request start and use that snapshot throughout, so a
	// concurrent Reload swap never changes an in-flight request's view
	// and the old engine drains naturally.
	engine atomic.Pointer[query.Engine]

	admit    *admission
	met      metrics
	reloadMu sync.Mutex // serializes Reload; never held on the request path

	// testHook, when set by a test, runs inside the query handler
	// after admission — the seam the saturation and drain tests use to
	// hold a request in flight deterministically.
	testHook func(*http.Request)
}

// New builds an unloaded Server for the archive at path. Call Reload
// to perform the initial load before serving.
func New(path string, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		path:  path,
		admit: newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait),
	}
}

// Engine returns the currently served engine (nil before the first
// successful Reload).
func (s *Server) Engine() *query.Engine { return s.engine.Load() }

// Response is the JSON shape of every /query answer; only the fields
// the query kind produces are set.
type Response struct {
	Query     string  `json:"query"`
	From      int64   `json:"from,omitempty"`
	To        int64   `json:"to,omitempty"`
	Reachable *bool   `json:"reachable,omitempty"`
	Distance  *int64  `json:"distance,omitempty"`
	Neighbors []int64 `json:"neighbors,omitempty"`
	Count     *int64  `json:"count,omitempty"`
	MinDegree *int64  `json:"minDegree,omitempty"`
	MaxDegree *int64  `json:"maxDegree,omitempty"`
}

// Handler builds the HTTP routes. Every route runs inside the recover
// middleware; only /query passes through admission control.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and the mux is answering.
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: the archive has been verified, decoded and
		// compiled (including eager memo warmup when Engine.Precompute
		// is set — NewWithOptions only returns after the warmup pass).
		if s.engine.Load() == nil {
			http.Error(w, "engine not loaded", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		// Content negotiation: JSON by default, the Prometheus text
		// format when the client asks for text/plain (a scraper pointed
		// at /stats instead of /metrics still gets something it parses).
		if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") &&
			!strings.Contains(accept, "application/json") {
			s.writePrometheus(w)
			return
		}
		s.writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writePrometheus(w)
	})
	mux.HandleFunc("GET /query", s.handleQuery)
	return s.recovered(mux)
}

// recovered is the panic-isolation middleware: a panicking request is
// answered 500 (when the header is still writable), counted, and the
// server keeps serving — one poisoned request cannot take the process
// down the way net/http's default per-connection recovery tears down
// the connection.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				s.cfg.Logf("gquery: panic serving %s: %v", r.URL.Path, p)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusFor maps a query error onto HTTP via the govern taxonomy.
// Cancellation (deadline expiry) is the server saying "not now", not
// the client's fault; limits are load-shedding; corruption is an
// internal fault. Everything else is genuine bad input.
func statusFor(err error) int {
	switch {
	case errors.Is(err, govern.ErrCanceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, govern.ErrLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, govern.ErrCorrupt):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeJSON encodes v to a buffer first, so an encoding failure can
// still become a clean 500 instead of a half-written 200, then sets
// the status before the body. Write failures (client gone mid-body)
// are counted, not silently discarded.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.met.writeErrors.Add(1)
		http.Error(w, "response encoding error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.met.writeErrors.Add(1)
	}
}

// param parses an int64 query parameter, distinguishing absent from
// malformed.
func param(r *http.Request, name string) (int64, bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, true, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Snapshot the engine once: a concurrent Reload swap must not
	// change this request's view mid-flight.
	eng := s.engine.Load()
	if eng == nil {
		http.Error(w, "engine not loaded", http.StatusServiceUnavailable)
		return
	}

	ctx := r.Context()
	if s.cfg.ReqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ReqTimeout)
		defer cancel()
	}

	if err := s.admit.acquire(ctx); err != nil {
		s.met.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter(s.cfg.QueueWait))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	start := time.Now()
	defer func() {
		s.admit.release()
		s.met.observe(time.Since(start))
	}()

	if faultinject.Enabled {
		faultinject.HitPanic(faultinject.ServeHandler)
	}
	if s.testHook != nil {
		s.testHook(r)
	}

	// Tiny queries may finish under the ticker stride without ever
	// polling ctx, so enforce the deadline at least once per request.
	if err := govern.Checkpoint(ctx, "serve: query"); err != nil {
		s.met.queryErrors.Add(1)
		http.Error(w, err.Error(), statusFor(err))
		return
	}

	q := r.URL.Query().Get("q")
	from, hasFrom, err := param(r, "from")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	to, hasTo, err := param(r, "to")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	need := func(ok bool, name string) bool {
		if !ok {
			http.Error(w, fmt.Sprintf("query %q needs %s=", q, name), http.StatusBadRequest)
		}
		return ok
	}

	resp := Response{Query: q, From: from, To: to}
	switch q {
	case "reach":
		if !need(hasFrom, "from") || !need(hasTo, "to") {
			return
		}
		ok, qerr := eng.ReachableContext(ctx, from, to)
		err = qerr
		resp.Reachable = &ok
	case "dist":
		if !need(hasFrom, "from") || !need(hasTo, "to") {
			return
		}
		d, qerr := eng.DistanceContext(ctx, from, to)
		err = qerr
		resp.Distance = &d
	case "out", "in", "both":
		if !need(hasFrom, "from") {
			return
		}
		dir := map[string]query.Direction{"out": query.Out, "in": query.In, "both": query.Both}[q]
		resp.Neighbors, err = eng.NeighborsContext(ctx, from, dir)
	case "components":
		c := eng.ComponentCount()
		resp.Count = &c
	case "degrees":
		mn, mx, qerr := eng.DegreeStats(query.Both)
		err = qerr
		resp.MinDegree, resp.MaxDegree = &mn, &mx
	default:
		http.Error(w, fmt.Sprintf("unknown query %q", q), http.StatusBadRequest)
		return
	}
	if err != nil {
		code := statusFor(err)
		if code != http.StatusBadRequest {
			s.met.queryErrors.Add(1)
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.met.served.Add(1)
	s.writeJSON(w, resp)
}

// retryAfter renders the Retry-After hint for shed responses: at
// least one second (the header's granularity), matched to how long a
// freed slot typically takes to surface under the configured wait.
func retryAfter(queueWait time.Duration) string {
	secs := int64(queueWait / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Serve answers HTTP on ln until ctx is done, then drains: in-flight
// requests complete (bounded by a 5s grace), new connections are
// refused, and a clean shutdown returns nil. Shutdown past the grace
// is an error only if a query handler was still running.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			// net/http counts a connection that never sent a request
			// as busy until it is 5s old, as long as the grace, so a
			// client's spare pre-dialed connection can hold Shutdown
			// to its deadline with nothing left to drain.
			if s.admit.inflight() > 0 {
				return err
			}
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
