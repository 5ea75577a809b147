package serve

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"graphrepair/internal/encoding"
	"graphrepair/internal/faultinject"
	"graphrepair/internal/query"
)

// load reads, verifies, decodes and compiles the archive. It runs
// entirely off the request path and touches no server state, so a
// failure leaves whatever engine is being served untouched.
func (s *Server) load(ctx context.Context) (*query.Engine, error) {
	if faultinject.Enabled {
		if err := faultinject.Hit(faultinject.ServeReloadRead); err != nil {
			return nil, err
		}
	}
	buf, err := os.ReadFile(s.path)
	if err != nil {
		return nil, err
	}
	payload := buf
	if encoding.IsSealed(buf) {
		// Sealed archive: verify the container checksums before the
		// grammar decoder sees a byte, so bit rot is a typed ErrCorrupt
		// here rather than a structural decode error (or worse, a
		// plausible-but-wrong grammar) later.
		if payload, err = encoding.Unseal(buf); err != nil {
			return nil, err
		}
	}
	g, err := encoding.DecodeContext(ctx, payload, s.cfg.Limits)
	if err != nil {
		return nil, err
	}
	// Bomb defense: reject analytically (O(|rules|), from rule sizes
	// alone) any archive whose derived graph exceeds the configured
	// caps, before compiling an engine that queries could then use to
	// materialize enormous neighbor blocks.
	if lim := s.cfg.Limits; lim.MaxNodes > 0 || lim.MaxEdges > 0 {
		nodes, edges := g.DerivedSize()
		if err := lim.CheckSize(nodes, edges); err != nil {
			return nil, err
		}
	}
	return query.NewContext(ctx, g)
}

// Reload atomically replaces the served engine with a freshly loaded
// one. The read/verify/decode/compile pipeline runs off the request
// path; only the final pointer store is visible to handlers, and
// in-flight requests keep the engine they started with (the old
// engine drains and is collected once its last request finishes). A
// failed reload — unreadable file, failed seal verification, corrupt
// payload, limits exceeded — logs, increments ReloadFailures, and
// leaves the old engine serving. Reloads are serialized; SIGHUP (via
// WatchHUP) and tests both funnel through here.
func (s *Server) Reload(ctx context.Context) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	eng, err := s.load(ctx)
	if err != nil {
		s.met.reloadFails.Add(1)
		s.cfg.Logf("gquery: reload of %s failed (keeping current engine): %v", s.path, err)
		return err
	}
	s.engine.Store(eng)
	s.met.reloads.Add(1)
	s.cfg.Logf("gquery: reloaded %s (nodes=%d edges=%d)", s.path, eng.NumNodes(), eng.NumEdges())
	return nil
}

// WatchHUP arranges for SIGHUP to trigger a Reload until ctx ends.
// Reload outcomes are logged and counted; a failed reload never
// interrupts serving.
func (s *Server) WatchHUP(ctx context.Context) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	go func() {
		defer signal.Stop(ch)
		for {
			select {
			case <-ctx.Done():
				return
			case <-ch:
				_ = s.Reload(ctx) // logged and counted inside
			}
		}
	}()
}
