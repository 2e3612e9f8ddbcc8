// Package httpexport serves a taupsm database's observability over
// HTTP: the metrics registry in Prometheus text exposition format
// (hand-rolled — no client library), the sampled span buffer as JSON,
// the Go runtime profiler, and a liveness probe.
//
// Endpoints:
//
//	/metrics        Prometheus text format (counters, gauges, histograms)
//	/statistics     data & workload statistics snapshot (JSON)
//	/traces         recent sampled traces, newest first (JSON)
//	/traces?id=ID   one trace's span tree (JSON)
//	/processlist    in-flight statements with live progress (JSON)
//	/healthz        liveness probe ("ok", or 503 with a reason)
//	/debug/pprof/   net/http/pprof profiles
//
// The server is read-only and unauthenticated; bind it to loopback or
// an operations network, not the public internet.
package httpexport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"taupsm/internal/obs"
)

// Server exposes one database's metrics registry and span buffer.
type Server struct {
	Metrics *obs.Metrics
	Ring    *obs.Ring
	// Statistics, when set, backs the /statistics endpoint: it returns
	// the document to serialize (the stratum passes its statistics
	// snapshot). Nil disables the endpoint with 404.
	Statistics func() any
	// Processes, when set, backs the /processlist endpoint: it returns
	// the snapshots of the in-flight statement records to serialize (the
	// stratum passes its ProcessList) — the object a statement's
	// slow-query log line is once it has finished. Nil disables the
	// endpoint with 404.
	Processes func() any
	// Healthz, when set, decides /healthz: nil keeps the plain "ok",
	// a non-nil error becomes HTTP 503 with the error text as reason.
	Healthz func() error
	// BuildInfo, when non-empty, is appended to /metrics as a
	// tau_build_info gauge with one label per map entry (version, go
	// version, GOOS/GOARCH), value 1 — the standard build-info idiom.
	BuildInfo map[string]string
}

// Handler returns the telemetry endpoint mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statistics", s.handleStatistics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/processlist", s.handleProcessList)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Healthz != nil {
			if err := s.Healthz(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unhealthy: %s\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(PrometheusText(s.Metrics)))
	w.Write([]byte(ProcessText()))
	w.Write([]byte(BuildInfoText(s.BuildInfo)))
}

// BuildInfoText renders the build-info gauge: constant value 1, the
// identifying facts as labels, sorted for a deterministic exposition.
// Empty info renders nothing.
func BuildInfoText(info map[string]string) string {
	if len(info) == 0 {
		return ""
	}
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# TYPE tau_build_info gauge\ntau_build_info{")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(info[k])
		fmt.Fprintf(&b, "%s=\"%s\"", SanitizeMetricName(k), v)
	}
	b.WriteString("} 1\n")
	return b.String()
}

func (s *Server) handleProcessList(w http.ResponseWriter, _ *http.Request) {
	if s.Processes == nil {
		http.Error(w, "process list not available", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Processes())
}

func (s *Server) handleStatistics(w http.ResponseWriter, _ *http.Request) {
	if s.Statistics == nil {
		http.Error(w, "statistics not available", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Statistics())
}

// traceSummaryJSON is one /traces listing entry.
type traceSummaryJSON struct {
	TraceID string `json:"trace_id"`
	Root    string `json:"root,omitempty"`
	Spans   int    `json:"spans"`
}

// spanJSON is one span in a /traces?id= tree.
type spanJSON struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	DurNS    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []spanJSON        `json:"children,omitempty"`
}

func toSpanJSON(n *obs.TraceNode) spanJSON {
	out := spanJSON{Name: n.Name, Start: n.Start, DurNS: int64(n.Dur)}
	if len(n.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(n.Attrs))
		for _, a := range n.Attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, toSpanJSON(c))
	}
	return out
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := obs.ParseTraceID(idStr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans := s.Ring.TraceSpans(id)
		if len(spans) == 0 {
			http.Error(w, "trace not found (never sampled, or evicted)", http.StatusNotFound)
			return
		}
		var roots []spanJSON
		for _, n := range obs.BuildTree(spans) {
			roots = append(roots, toSpanJSON(n))
		}
		enc.Encode(map[string]any{"trace_id": id.String(), "spans": roots})
		return
	}
	sums := s.Ring.Traces()
	out := make([]traceSummaryJSON, 0, len(sums))
	for _, t := range sums {
		out = append(out, traceSummaryJSON{TraceID: t.Trace.String(), Root: t.Root, Spans: t.Spans})
	}
	enc.Encode(out)
}

// ---------- Prometheus text exposition ----------

// PrometheusText renders the registry in Prometheus text exposition
// format (version 0.0.4). Metric names have their dots replaced by
// underscores; histogram buckets (nanosecond durations internally) are
// exposed with `le` bounds in seconds, cumulatively, ending at +Inf,
// plus the standard _sum (seconds) and _count series.
func PrometheusText(m *obs.Metrics) string {
	var b strings.Builder
	snap := m.Snapshot()
	// The registry sorts by raw name; sanitizing can reorder (dots sort
	// below underscores and digits). Sort by the exposed name so the
	// exposition is deterministic in its own alphabet.
	sort.SliceStable(snap, func(i, j int) bool {
		return SanitizeMetricName(snap[i].Name) < SanitizeMetricName(snap[j].Name)
	})
	for _, ms := range snap {
		name := SanitizeMetricName(ms.Name)
		switch ms.Kind {
		case "counter":
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, ms.Value)
		case "gauge":
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, ms.Value)
		case "histogram":
			h := ms.Hist
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
			// Bucket counts come from one snapshot, so deriving _count
			// from their sum (rather than the separately-read Count)
			// keeps the exposition internally consistent even when a
			// concurrent Record straddled the snapshot.
			var cum int64
			for i := 0; i < h.NumBuckets()-1; i++ {
				cum += h.Buckets[i]
				fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", name, formatLE(h.Upper(i)), cum)
			}
			cum += h.Buckets[h.NumBuckets()-1] // overflow bucket: +Inf
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", name, formatSeconds(h.SumNS))
			fmt.Fprintf(&b, "%s_count %d\n", name, cum)
		}
	}
	return b.String()
}

// SanitizeMetricName maps a registry name ("stratum.parse_ns") to a
// valid Prometheus metric name ("stratum_parse_ns"): every character
// outside [a-zA-Z0-9_:] becomes an underscore, with a leading
// underscore prepended if the name would start with a digit.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatLE renders a duration bucket bound in seconds without
// float-noise: exact powers of two of a microsecond always have a
// finite decimal representation.
func formatLE(d time.Duration) string {
	return trimFloat(float64(d) / float64(time.Second))
}

// formatSeconds renders a nanosecond total as seconds.
func formatSeconds(ns int64) string {
	return trimFloat(float64(ns) / float64(time.Second))
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.9f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
