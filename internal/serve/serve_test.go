package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"graphrepair/internal/core"
	"graphrepair/internal/encoding"
	"graphrepair/internal/govern"
	"graphrepair/internal/grammar"
	"graphrepair/internal/hypergraph"
)

// encodeChain compresses an n-node directed chain and returns the
// encoded archive bytes.
func encodeChain(t testing.TB, n int) []byte {
	t.Helper()
	g := hypergraph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	res, err := core.Compress(g, 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := encoding.Encode(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// writeArchive writes an n-node chain archive (sealed when sealed is
// set) and returns its path.
func writeArchive(t testing.TB, n int, sealed bool) string {
	t.Helper()
	buf := encodeChain(t, n)
	if sealed {
		buf = encoding.Seal(buf)
	}
	path := filepath.Join(t.TempDir(), "g.grpr")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadedServer builds a Server over a fresh chain archive and
// performs the initial load.
func loadedServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Logf = t.Logf
	s := New(writeArchive(t, 9, false), cfg)
	if err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, client *http.Client, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestStatusFor pins the govern-taxonomy → HTTP mapping, including
// wrapped errors through errors.Is.
func TestStatusFor(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{&govern.CanceledError{Op: "x", Cause: context.DeadlineExceeded}, http.StatusServiceUnavailable},
		{&govern.LimitError{Resource: "derived nodes", Demanded: 2, Allowed: 1}, http.StatusTooManyRequests},
		{fmt.Errorf("wrap: %w", govern.ErrCorrupt), http.StatusInternalServerError},
		{errors.New("node 99 out of range"), http.StatusBadRequest},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestReadiness pins the liveness/readiness split: an unloaded server
// is alive but not ready and refuses queries with 503; after the
// initial load it is ready.
func TestReadiness(t *testing.T) {
	s := New(writeArchive(t, 9, false), Config{Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := get(t, ts.Client(), ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before load = %d, want 200", code)
	}
	if code, _, _ := get(t, ts.Client(), ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before load = %d, want 503", code)
	}
	if code, _, _ := get(t, ts.Client(), ts.URL+"/query?q=components"); code != http.StatusServiceUnavailable {
		t.Fatalf("query before load = %d, want 503", code)
	}
	if err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, ts.Client(), ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after load = %d, want 200", code)
	}
	if code, _, _ := get(t, ts.Client(), ts.URL+"/query?q=components"); code != http.StatusOK {
		t.Fatalf("query after load = %d, want 200", code)
	}
}

// TestPanicIsolation pins the recover middleware: a poisoned request
// answers 500 and bumps the panic counter while the server keeps
// serving later requests. (The chaos harness drives the same path
// through the serve.handler failpoint under -tags faultinject.)
func TestPanicIsolation(t *testing.T) {
	s := loadedServer(t, Config{})
	var poison atomic.Bool
	s.testHook = func(r *http.Request) {
		if poison.CompareAndSwap(true, false) {
			panic("poisoned request")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	poison.Store(true)
	if code, _, _ := get(t, ts.Client(), ts.URL+"/query?q=components"); code != http.StatusInternalServerError {
		t.Fatalf("poisoned query = %d, want 500", code)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if code, body, _ := get(t, ts.Client(), ts.URL+"/query?q=components"); code != http.StatusOK {
			t.Fatalf("query %d after panic = %d %q, want 200", i, code, body)
		}
	}
	if got := s.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after panic = %d, want 0 (slot leaked?)", got)
	}
}

// TestSaturationSheds pins admission control end to end: with one
// in-flight slot held by a blocked request, a burst of concurrent
// requests is shed with 429 + Retry-After, the admitted request still
// succeeds, and the client-side tally reconciles exactly with the
// /stats shed/served counters.
func TestSaturationSheds(t *testing.T) {
	s := loadedServer(t, Config{
		MaxInflight: 1,
		QueueDepth:  1,
		QueueWait:   20 * time.Millisecond,
	})
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.testHook = func(r *http.Request) {
		select {
		case entered <- struct{}{}:
			<-gate // the slot-holding request parks here
		default:
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/query?q=components"
	holderDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			holderDone <- -1
			return
		}
		resp.Body.Close()
		holderDone <- resp.StatusCode
	}()
	<-entered // the slot is now held

	const burst = 7
	var ok200, shed429, other atomic.Int64
	var sawRetryAfter atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				other.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed429.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					sawRetryAfter.Store(true)
				}
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	close(gate) // release the slot holder
	if code := <-holderDone; code != http.StatusOK {
		t.Fatalf("admitted (slot-holding) request = %d, want 200", code)
	}
	if other.Load() != 0 {
		t.Fatalf("%d burst requests failed outside 200/429", other.Load())
	}
	if shed429.Load() != burst {
		t.Fatalf("burst tally: %d shed, %d ok; want all %d shed while the slot was held",
			shed429.Load(), ok200.Load(), burst)
	}
	if !sawRetryAfter.Load() {
		t.Fatal("shed responses carried no Retry-After header")
	}

	st := s.Stats()
	if st.Shed != uint64(shed429.Load()) {
		t.Fatalf("/stats shed = %d, client-side 429 tally = %d", st.Shed, shed429.Load())
	}
	if st.Served != 1+uint64(ok200.Load()) {
		t.Fatalf("/stats served = %d, client-side 200 tally = %d", st.Served, 1+ok200.Load())
	}
	if st.Inflight != 0 {
		t.Fatalf("/stats inflight = %d after drain, want 0", st.Inflight)
	}
}

// TestAdmissionQueueAdmits pins the queue's purpose: a waiter that
// arrives while the slot is briefly held gets admitted (not shed)
// once the slot frees within QueueWait.
func TestAdmissionQueueAdmits(t *testing.T) {
	a := newAdmission(1, 1, time.Second)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- a.acquire(context.Background()) }()
	// Wait until the waiter is queued, then free the slot.
	for i := 0; a.queuedNow() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	a.release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued waiter shed despite freed slot: %v", err)
	}
	a.release()
}

// TestHotReload pins the atomic swap: after overwriting the archive
// and reloading, queries answer for the new graph; a subsequent
// failed reload (corrupt file) keeps the new engine serving
// byte-identical answers and only bumps the failure counter.
func TestHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.grpr")
	if err := os.WriteFile(path, encodeChain(t, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(path, Config{Logf: t.Logf})
	if err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	countURL := ts.URL + "/query?q=components"
	reachURL := ts.URL + "/query?q=reach&from=1&to=17"
	if _, body, _ := get(t, ts.Client(), ts.URL+"/stats"); !strings.Contains(body, `"Nodes":9`) {
		t.Fatalf("stats before reload = %q, want 9 nodes", body)
	}
	// 17 is out of range on the 9-node chain.
	if code, _, _ := get(t, ts.Client(), reachURL); code != http.StatusBadRequest {
		t.Fatalf("reach 1→17 on 9-node graph = %d, want 400", code)
	}

	// Overwrite with a sealed 17-node chain and reload: the swap must
	// be visible and the sealed container accepted.
	if err := os.WriteFile(path, encoding.Seal(encodeChain(t, 17)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(context.Background()); err != nil {
		t.Fatalf("reload to sealed 17-node archive: %v", err)
	}
	if _, body, _ := get(t, ts.Client(), ts.URL+"/stats"); !strings.Contains(body, `"Nodes":17`) {
		t.Fatalf("stats after reload = %q, want 17 nodes", body)
	}
	code, wantReach, _ := get(t, ts.Client(), reachURL)
	if code != http.StatusOK {
		t.Fatalf("reach 1→17 after reload = %d, want 200", code)
	}
	_, wantCount, _ := get(t, ts.Client(), countURL)

	// Corrupt the file on disk: reload must fail, count the failure,
	// and leave the 17-node engine serving byte-identical answers.
	if err := os.WriteFile(path, []byte("bit rot everywhere"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(context.Background()); !errors.Is(err, govern.ErrCorrupt) {
		t.Fatalf("reload of corrupt file = %v, want ErrCorrupt", err)
	}
	st := s.Stats()
	if st.Reloads != 2 || st.ReloadFailures != 1 {
		t.Fatalf("reload counters = %d ok / %d failed, want 2/1", st.Reloads, st.ReloadFailures)
	}
	if _, body, _ := get(t, ts.Client(), reachURL); body != wantReach {
		t.Fatalf("reach answer drifted after failed reload: %q vs %q", body, wantReach)
	}
	if _, body, _ := get(t, ts.Client(), countURL); body != wantCount {
		t.Fatalf("components answer drifted after failed reload: %q vs %q", body, wantCount)
	}
}

// TestReloadLimits pins that the analytic bomb defense also guards
// reloads: swapping a bomb archive in place of a healthy one fails
// with ErrLimit and keeps serving the old engine.
func TestReloadLimits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.grpr")
	if err := os.WriteFile(path, encodeChain(t, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(path, Config{Limits: govern.Limits{MaxNodes: 1 << 20}, Logf: t.Logf})
	if err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bombArchive(t, 31), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(context.Background()); !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("reload of bomb = %v, want ErrLimit", err)
	}
	if eng := s.Engine(); eng == nil || eng.NumNodes() != 9 {
		t.Fatal("old engine not retained after rejected bomb reload")
	}
}

// bombArchive encodes a ≤1KB grammar deriving 2^levels edges.
func bombArchive(t testing.TB, levels int) []byte {
	t.Helper()
	g := grammarBomb(levels)
	buf, _, err := encoding.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWatchHUP pins the signal path: a real SIGHUP triggers an
// atomic reload.
func TestWatchHUP(t *testing.T) {
	s := loadedServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.WatchHUP(ctx)
	// Give signal.Notify a beat to register before raising.
	time.Sleep(10 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Reloads < 2 { // 1 initial + 1 from SIGHUP
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP did not trigger a reload (reloads=%d)", s.Stats().Reloads)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownDrain pins graceful shutdown: an in-flight slow query
// completes (not killed) during Shutdown, new connections are
// refused, and Serve returns nil. Run under -race in CI.
func TestShutdownDrain(t *testing.T) {
	s := loadedServer(t, Config{})
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.testHook = func(r *http.Request) {
		select {
		case entered <- struct{}{}:
			<-gate
		default:
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/query?q=components")
		if err != nil {
			slow <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-entered // the slow query is in flight

	cancel() // begin graceful shutdown
	// New connections must be refused once the listener closes; poll
	// because Shutdown closes it asynchronously from our perspective.
	refused := false
	for i := 0; i < 1000 && !refused; i++ {
		c := &http.Client{Timeout: 100 * time.Millisecond}
		if _, err := c.Get(base + "/healthz"); err != nil {
			refused = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !refused {
		t.Fatal("new connections still accepted during shutdown")
	}

	close(gate) // let the in-flight query finish
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("in-flight query during shutdown = %d, want 200 (killed by drain?)", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil after clean drain", err)
	}
}

// TestShutdownIdleConnection pins that a connection which never sends
// a request does not fail shutdown: net/http counts it as busy until
// it is 5s old, as long as the drain grace, so Shutdown hits its
// deadline; with no handler running, Serve must still return nil.
func TestShutdownIdleConnection(t *testing.T) {
	s := loadedServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// The listener accepts in order, so once a later connection has
	// been served the idle one has been accepted too.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v with only an idle connection open, want nil", err)
	}
}

// TestWriteJSONFailure pins the writeJSON contract: an unencodable
// value becomes a clean 500 (status set before any body byte) and is
// counted, never a half-written 200.
func TestWriteJSONFailure(t *testing.T) {
	s := loadedServer(t, Config{})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON of unencodable value = %d, want 500", rec.Code)
	}
	if got := s.Stats().WriteErrors; got != 1 {
		t.Fatalf("writeErrors = %d, want 1", got)
	}
	rec = httptest.NewRecorder()
	s.writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok":1`) {
		t.Fatalf("writeJSON of good value = %d %q", rec.Code, rec.Body.String())
	}
}

// TestLatencyBuckets pins that admitted requests land in the
// histogram and the buckets sum to the admitted count.
func TestLatencyBuckets(t *testing.T) {
	s := loadedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if code, _, _ := get(t, ts.Client(), ts.URL+"/query?q=components"); code != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	lb := s.Stats().Latency
	total := lb.Le1ms + lb.Le10ms + lb.Le100ms + lb.Le1s + lb.Gt1s
	if total != n {
		t.Fatalf("latency buckets sum to %d, want %d", total, n)
	}
}

// grammarBomb builds a grammar deriving 2^levels edges from O(levels)
// rules (each rule chains two copies of the previous nonterminal).
func grammarBomb(levels int) *grammar.Grammar {
	g := grammar.New(1, nil)
	prev := hypergraph.Label(1)
	for i := 0; i < levels; i++ {
		rhs := hypergraph.New(3)
		rhs.AddEdge(prev, 1, 3)
		rhs.AddEdge(prev, 3, 2)
		rhs.SetExt(1, 2)
		prev = g.AddRule(rhs)
	}
	start := hypergraph.New(2)
	start.AddEdge(prev, 1, 2)
	g.Start = start
	return g
}

// TestMetricsEndpoint pins the Prometheus surface: /metrics always
// speaks the text exposition format, /stats negotiates — JSON by
// default, Prometheus text when the client accepts only text/plain —
// and the two views agree on the counters underneath.
func TestMetricsEndpoint(t *testing.T) {
	s := loadedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, _, _ := get(t, ts.Client(), ts.URL+"/query?q=components"); code != http.StatusOK {
			t.Fatalf("query %d = %d, want 200", i, code)
		}
	}

	code, body, hdr := get(t, ts.Client(), ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); ct != promContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, promContentType)
	}
	for _, want := range []string{
		"# TYPE gquery_served_total counter",
		"gquery_served_total 3",
		"gquery_engine_nodes 9",
		`gquery_request_duration_seconds_bucket{le="+Inf"} 3`,
		"gquery_request_duration_seconds_count 3",
		"gquery_request_duration_seconds_sum ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Histogram buckets must be cumulative: every bucket line's value
	// is bounded by the final count.
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "gquery_request_duration_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if v > 3 {
			t.Errorf("bucket line %q exceeds the request count", line)
		}
	}

	// /stats without an Accept preference stays JSON.
	_, body, hdr = get(t, ts.Client(), ts.URL+"/stats")
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/stats content type %q, want application/json", ct)
	}
	if !strings.Contains(body, `"served":3`) {
		t.Fatalf("/stats JSON missing served count:\n%s", body)
	}

	// /stats with Accept: text/plain negotiates to Prometheus text.
	negotiated := func(accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header.Get("Content-Type")
	}
	body, ct := negotiated("text/plain")
	if ct != promContentType || !strings.Contains(body, "gquery_served_total 3") {
		t.Fatalf("/stats with Accept: text/plain: content type %q, body:\n%s", ct, body)
	}
	// A client accepting both keeps the richer JSON view.
	if _, ct := negotiated("application/json, text/plain"); ct != "application/json" {
		t.Fatalf("/stats with Accept: application/json, text/plain: content type %q", ct)
	}
}
