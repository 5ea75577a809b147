package serve

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"graphrepair/internal/encoding"
	"graphrepair/internal/faultinject"
	"graphrepair/internal/govern"
	"graphrepair/internal/query"
)

// Load is the one path from an archive file to a query engine, for
// Server.Reload and for gquery's one-shot mode: it reads the file,
// decodes it (sealed or plain, see encoding.DecodeContext) under lim,
// rejects analytically (O(|rules|), from rule sizes alone) any
// archive whose derived graph exceeds lim.MaxNodes or lim.MaxEdges,
// and compiles the engine. It touches no server state, so a failure
// leaves whatever engine is being served untouched.
func Load(ctx context.Context, path string, lim govern.Limits) (*query.Engine, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := encoding.DecodeContext(ctx, buf, lim)
	if err != nil {
		return nil, err
	}
	// DerivedSize is a pass over the rules; skip it when no cap is set.
	if lim.MaxNodes > 0 || lim.MaxEdges > 0 {
		if err := lim.CheckSize(g.DerivedSize()); err != nil {
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
	var eng *query.Engine
	var err error
	if faultinject.Enabled {
		err = faultinject.Hit(faultinject.ServeReloadRead)
	}
	if err == nil {
		eng, err = Load(ctx, s.path, s.cfg.Limits)
	}
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
