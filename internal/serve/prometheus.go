package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4) of the /stats
// snapshot, served at /metrics and — via Accept: text/plain content
// negotiation — at /stats. Rendered by hand: the format is a dozen
// lines of "name value" with HELP/TYPE headers, not worth a client
// library dependency. Counter names carry the _total suffix and the
// latency histogram follows the histogram convention (cumulative
// le-labeled buckets ending at +Inf, plus _sum and _count).

// promContentType is the content type Prometheus scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus answers one scrape: snapshot, content type, render.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", promContentType)
	renderPrometheus(w, s.Stats())
}

// renderPrometheus renders the snapshot in the exposition format.
func renderPrometheus(w io.Writer, snap StatsSnapshot) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("gquery_served_total", "Query requests answered 200.", snap.Served)
	counter("gquery_shed_total", "Requests rejected by admission control.", snap.Shed)
	counter("gquery_panics_total", "Handler panics caught by the recover middleware.", snap.Panics)
	counter("gquery_query_errors_total", "Query failures other than bad input.", snap.QueryErrors)
	counter("gquery_write_errors_total", "Response encode/write failures.", snap.WriteErrors)
	counter("gquery_reloads_total", "Successful hot reloads.", snap.Reloads)
	counter("gquery_reload_failures_total", "Failed reloads (old engine kept serving).", snap.ReloadFailures)
	gauge("gquery_inflight", "Admitted requests currently executing.", int64(snap.Inflight))
	gauge("gquery_queued", "Requests waiting in the admission queue.", int64(snap.Queued))
	gauge("gquery_engine_nodes", "Derived nodes of the served grammar.", snap.Engine.Nodes)
	gauge("gquery_engine_edges", "Derived edges of the served grammar.", snap.Engine.Edges)
	gauge("gquery_engine_rules", "Rules of the served grammar.", int64(snap.Engine.Rules))

	const h = "gquery_request_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Admitted request wall time.\n# TYPE %s histogram\n", h, h)
	cum := uint64(0)
	buckets := [...]uint64{snap.Latency.Le1ms, snap.Latency.Le10ms, snap.Latency.Le100ms, snap.Latency.Le1s}
	for i, b := range buckets {
		cum += b
		le := strconv.FormatFloat(latencyBounds[i].Seconds(), 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h, le, cum)
	}
	cum += snap.Latency.Gt1s
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h, strconv.FormatFloat(snap.LatencySumSeconds, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", h, cum)
}
