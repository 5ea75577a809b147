package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one replayed request (its HTTP round trip and its engine-direct
// replay) share Req; all other spans have Req 0.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Req    int64         `json:"req,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op returning 0.
type tracer struct {
	mu    sync.Mutex // the versions reloader records from its own goroutine
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int32, layer, name string, req int64) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: time.Since(t.t0)})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTimes is one layer's share of a trace: busy is the time its
// outermost spans were open, self is busy minus the part covered by
// child spans of other calls.
type layerTimes struct{ busy, self time.Duration }

// layers computes every layer's busy and self time. A span's self time
// is its duration minus the union of its children's intervals, so
// overlapping children (the concurrent reloader) are not counted twice.
func (t *tracer) layers() map[string]layerTimes {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]layerTimes)
	for _, s := range t.spans {
		lt := out[s.Layer]
		if s.Parent == 0 || t.spans[s.Parent-1].Layer != s.Layer {
			lt.busy += s.End - s.Start
		}
		lt.self += s.End - s.Start - covered(children[s.ID])
		out[s.Layer] = lt
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, lo, hi time.Duration
	open := false
	for _, s := range ss {
		if open && s.Start <= hi {
			hi = max(hi, s.End)
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = s.Start, s.End, true
	}
	if open {
		total += hi - lo
	}
	return total
}

// write stores the spans as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
