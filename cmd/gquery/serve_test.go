package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"graphrepair/internal/encoding"
	"graphrepair/internal/govern"
	"graphrepair/internal/serve"
)

// startServer loads the archive at path into a serve.Server, serves
// it on an ephemeral loopback port, and returns the base URL plus a
// shutdown function that triggers the graceful-drain path and reports
// its error.
func startServer(t *testing.T, path string, reqTimeout time.Duration) (string, func() error) {
	t.Helper()
	srv := serve.New(path, serve.Config{
		ReqTimeout: reqTimeout,
		Logf:       t.Logf,
	})
	if err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("server did not shut down")
		}
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeSmoke drives the server over a real TCP connection: health
// and readiness checks, every query kind, stats, bad-input rejection,
// and a clean shutdown at the end.
func TestServeSmoke(t *testing.T) {
	base, shutdown := startServer(t, compressedFile(t), time.Minute)

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// The 9-node chain: 1 → … → 9.
	code, body := get(t, base+"/query?q=reach&from=1&to=9")
	if code != http.StatusOK {
		t.Fatalf("reach = %d %q", code, body)
	}
	var r serve.Response
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Reachable == nil || !*r.Reachable {
		t.Fatalf("reach 1→9 = %q, want reachable", body)
	}

	code, body = get(t, base+"/query?q=dist&from=1&to=9")
	var d serve.Response
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("dist = %d %q: %v", code, body, err)
	}
	// Compression renumbers nodes, so the exact distance depends on the
	// derived numbering; 1→9 is reachable (pinned above), so it must be
	// a positive path length.
	if d.Distance == nil || *d.Distance < 1 {
		t.Fatalf("dist 1→9 = %q, want a positive distance", body)
	}

	code, body = get(t, base+"/query?q=out&from=1")
	var nb serve.Response
	if err := json.Unmarshal([]byte(body), &nb); err != nil {
		t.Fatalf("out = %d %q: %v", code, body, err)
	}
	if len(nb.Neighbors) != 1 || nb.Neighbors[0] != 2 {
		t.Fatalf("out(1) = %q, want [2]", body)
	}

	if code, body = get(t, base+"/query?q=components"); code != http.StatusOK || !strings.Contains(body, `"count":1`) {
		t.Fatalf("components = %d %q", code, body)
	}
	if code, body = get(t, base+"/query?q=degrees"); code != http.StatusOK || !strings.Contains(body, "maxDegree") {
		t.Fatalf("degrees = %d %q", code, body)
	}
	if code, body = get(t, base+"/stats"); code != http.StatusOK || !strings.Contains(body, `"Nodes":9`) {
		t.Fatalf("stats = %d %q", code, body)
	}

	// Malformed requests are 400s, not 500s.
	for _, bad := range []string{
		"/query?q=bogus",
		"/query?q=reach&from=1",              // missing to
		"/query?q=reach&from=x&to=2",         // malformed from
		"/query?q=reach&from=1&to=99999",     // out of range
		"/query?q=reach&from=99999&to=99999", // out-of-range self pair
		"/query?q=dist&from=0&to=0",          // out-of-range self pair
	} {
		if code, body := get(t, base+bad); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d %q, want 400", bad, code, body)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeDeadlineExceeded pins the per-request deadline path: with a
// vanishing -reqtimeout every query answers 503 (canceled maps to
// 503, not 400), and the server stays healthy.
func TestServeDeadlineExceeded(t *testing.T) {
	base, shutdown := startServer(t, compressedFile(t), time.Nanosecond)
	if code, body := get(t, base+"/query?q=reach&from=1&to=9"); code != http.StatusServiceUnavailable {
		t.Fatalf("reach under 1ns deadline = %d %q, want 503", code, body)
	}
	// Liveness is deadline-free.
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestConcurrentServe hammers one served engine from many goroutines
// over real HTTP connections — the end-to-end shape of the serving
// architecture (run under -race in CI).
func TestConcurrentServe(t *testing.T) {
	base, shutdown := startServer(t, compressedFile(t), time.Minute)

	// Compression renumbers nodes, so don't assume what reach(i,9)
	// answers — pin each response sequentially first, then assert every
	// concurrent response is byte-identical to its sequential one.
	urls := make([]string, 0, 18)
	for from := 1; from <= 9; from++ {
		urls = append(urls,
			fmt.Sprintf("%s/query?q=reach&from=%d&to=9", base, from),
			fmt.Sprintf("%s/query?q=both&from=%d", base, from))
	}
	want := make(map[string]string, len(urls))
	for _, u := range urls {
		code, body := get(t, u)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d %q", u, code, body)
		}
		want[u] = body
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				url := urls[(w+i)%len(urls)]
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || string(body) != want[url] {
					t.Errorf("worker %d: GET %s = %d %q, want %q", w, url, resp.StatusCode, body, want[url])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeSealedArchive pins that serve mode loads a sealed archive
// (container verified, then decoded) and refuses a corrupted one with
// ErrCorrupt at startup.
func TestServeSealedArchive(t *testing.T) {
	plain := compressedFile(t)
	buf, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	sealed := plain + ".sealed"
	if err := os.WriteFile(sealed, encoding.Seal(buf), 0o644); err != nil {
		t.Fatal(err)
	}

	base, shutdown := startServer(t, sealed, time.Minute)
	if code, body := get(t, base+"/query?q=reach&from=1&to=9"); code != http.StatusOK {
		t.Fatalf("reach over sealed archive = %d %q", code, body)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Flip one payload byte: the initial load must fail corrupt.
	rotted := append([]byte(nil), encoding.Seal(buf)...)
	rotted[len(rotted)-1] ^= 0x40
	bad := plain + ".rotted"
	if err := os.WriteFile(bad, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(bad, serve.Config{Logf: t.Logf})
	if err := srv.Reload(context.Background()); !errors.Is(err, govern.ErrCorrupt) {
		t.Fatalf("loading bit-rotted sealed archive = %v, want ErrCorrupt", err)
	}
}

// TestServeBombRejected pins the startup bomb defense end to end
// through runServe: a tiny archive deriving 2^31 edges is rejected
// analytically with ErrLimit before the server ever listens.
func TestServeBombRejected(t *testing.T) {
	bomb := writeBombArchive(t, 31)
	err := runServe(bomb, "127.0.0.1:0", serve.Config{
		Limits: govern.Limits{MaxEdges: 1 << 20},
		Logf:   t.Logf,
	})
	if !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("runServe on bomb with -max-edges = %v, want ErrLimit", err)
	}
	err = runServe(bomb, "127.0.0.1:0", serve.Config{
		Limits: govern.Limits{MaxNodes: 1 << 20},
		Logf:   t.Logf,
	})
	if !errors.Is(err, govern.ErrLimit) {
		t.Fatalf("runServe on bomb with -max-nodes = %v, want ErrLimit", err)
	}
}
