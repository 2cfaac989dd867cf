package dashboard

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"lorameshmon/internal/metrics"
)

// The server-health panel: a compact rendering of the collector's
// self-observability registry — the "monitor the monitor" view. It is
// generated entirely from the registry snapshot, so any family wired
// into the shared registry (ingest, HTTP, tsdb, alerts, uplink clients)
// shows up without dashboard changes.

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	reg := s.coll.Metrics()

	counterVal := func(name string, labelValues ...string) (float64, bool) {
		fam, ok := reg.Family(name)
		if !ok {
			return 0, false
		}
		total, matched := 0.0, false
		for _, smp := range fam.Samples {
			if len(labelValues) > 0 && !labelsMatch(smp.LabelValues, labelValues) {
				continue
			}
			total += smp.Value
			matched = true
		}
		return total, matched
	}
	// The summary table is one header row over one value row: stat opens
	// a column and leaves its value cell open for the caller to fill.
	var th, td []byte
	stat := func(label string) {
		th = append(append(append(th, "<th>"...), label...), "</th>"...)
		td = append(td, "<td>"...)
	}
	count := func(label string, v float64) {
		stat(label)
		td = append(appendFloat(td, v, 0), "</td>"...)
	}
	seconds := func(label string, v float64) {
		stat(label)
		td = append(appendSeconds(td, v), "</td>"...)
	}

	if v, ok := counterVal("meshmon_ingest_batches_total", "ok"); ok {
		count("batches ingested", v)
	}
	if v, ok := counterVal("meshmon_ingest_batches_total", "dup"); ok {
		count("dup batches dropped", v)
	}
	if v, ok := counterVal("meshmon_ingest_batches_total", "rejected"); ok {
		count("batches rejected", v)
	}
	if v, ok := counterVal("meshmon_ingest_records_total"); ok {
		count("records ingested", v)
	}
	if v, ok := counterVal("meshmon_ingest_bytes_total"); ok {
		count("ingest bytes (HTTP)", v)
	}
	if fam, ok := reg.Family("meshmon_ingest_latency_seconds"); ok && len(fam.Samples) > 0 {
		if h := fam.Samples[0].Hist; h != nil && h.Count > 0 {
			seconds("ingest p50", h.Quantile(0.5))
			seconds("ingest p99", h.Quantile(0.99))
		}
	}
	if v, ok := counterVal("meshmon_tsdb_points"); ok {
		count("tsdb points", v)
	}
	if v, ok := counterVal("meshmon_tsdb_series"); ok {
		count("tsdb series", v)
	}
	if v, ok := counterVal("meshmon_tsdb_compressed_bytes"); ok {
		count("tsdb compressed bytes", v)
	}
	// Compression ratio: 16 raw bytes per (TS, Value) sample against the
	// sealed chunks' actual footprint.
	if bps, ok := counterVal("meshmon_tsdb_bytes_per_sample"); ok && bps > 0 {
		stat("tsdb compression")
		td = append(appendFloat(td, 16/bps, 1), "x ("...)
		td = append(appendFloat(td, bps, 2), " B/sample)</td>"...)
	}
	if v, ok := counterVal("meshmon_alert_active"); ok {
		count("active alerts", v)
	}
	// The streaming read path (visible when the dashboard shares this
	// registry, i.e. Config.Metrics = collector registry).
	hits, okH := counterVal("meshmon_read_cache_requests_total", "hit")
	misses, okM := counterVal("meshmon_read_cache_requests_total", "miss")
	if okH && okM && hits+misses > 0 {
		stat("panel cache hit rate")
		td = append(appendFloat(td, 100*hits/(hits+misses), 1), "% ("...)
		td = append(appendFloat(td, hits, 0), '/')
		td = append(appendFloat(td, hits+misses, 0), ")</td>"...)
	}
	if v, ok := counterVal("meshmon_read_cache_entries"); ok {
		count("panel cache entries", v)
	}
	if v, ok := counterVal("meshmon_read_sse_clients"); ok {
		count("sse clients", v)
	}
	if v, ok := counterVal("meshmon_read_sse_dropped_total"); ok {
		count("sse events dropped", v)
	}
	if v, ok := counterVal("meshmon_read_delta_bytes_total"); ok {
		count("delta bytes sent", v)
	}

	buf, b := s.page(16<<10 + len(th) + len(td))
	b = append(b, "\n<h2>Server health</h2>\n"...)
	if len(th) > 0 {
		b = append(append(b, "<table><tr>"...), th...)
		b = append(append(b, "</tr>\n<tr>"...), td...)
		b = append(b, "</tr></table>\n"...)
	} else {
		b = append(b, `<p class="meta">no self-observability metrics recorded yet</p>`...)
	}
	b = appendRouteTable(append(b, '\n'), reg)
	b = append(b, "\n<h2>All metric families</h2>\n<table><tr><th>Family</th><th>Kind</th><th>Labels</th><th>Value</th></tr>\n"...)
	b = appendFamilyRows(b, reg)
	writePage(w, buf, append(b, "\n</table>\n"...))
}

// appendRouteTable folds the per-route HTTP families into one table,
// if there are any.
func appendRouteTable(b []byte, reg *metrics.Registry) []byte {
	reqs, ok := reg.Family("meshmon_http_requests_total")
	if !ok {
		return b
	}
	type acc struct {
		total, errors float64
	}
	routes := map[string]*acc{}
	for _, smp := range reqs.Samples {
		if len(smp.LabelValues) != 2 {
			continue
		}
		route, code := smp.LabelValues[0], smp.LabelValues[1]
		a := routes[route]
		if a == nil {
			a = &acc{}
			routes[route] = a
		}
		a.total += smp.Value
		if !strings.HasPrefix(code, "2") {
			a.errors += smp.Value
		}
	}
	if len(routes) == 0 {
		return b
	}
	lat, _ := reg.Family("meshmon_http_request_seconds")
	latByRoute := map[string]*metrics.HistogramSnapshot{}
	for _, smp := range lat.Samples {
		if len(smp.LabelValues) == 1 && smp.Hist != nil {
			latByRoute[smp.LabelValues[0]] = smp.Hist
		}
	}
	names := make([]string, 0, len(routes))
	for r := range routes {
		names = append(names, r)
	}
	sort.Strings(names)
	b = append(b, "<h2>API routes</h2>\n<table><tr><th>Route</th><th>Requests</th><th>Errors</th><th>p50</th><th>p99</th></tr>\n"...)
	for _, r := range names {
		b = appendText(append(b, "<tr><td>"...), r)
		b = appendFloat(append(b, "</td><td>"...), routes[r].total, 0)
		b = appendFloat(append(b, "</td><td>"...), routes[r].errors, 0)
		b = append(b, "</td><td>"...)
		if h := latByRoute[r]; h != nil && h.Count > 0 {
			b = appendSeconds(b, h.Quantile(0.5))
			b = appendSeconds(append(b, "</td><td>"...), h.Quantile(0.99))
		} else {
			b = append(b, "—</td><td>—"...)
		}
		b = append(b, "</td></tr>"...)
	}
	return append(b, "\n</table>"...)
}

// appendFamilyRows renders the whole registry generically, one row per
// sample.
func appendFamilyRows(b []byte, reg *metrics.Registry) []byte {
	for _, fam := range reg.Snapshot() {
		if len(fam.Samples) == 0 {
			// A labeled family with no children yet — keep it visible so
			// operators can discover what will be reported.
			b = append(appendFamilyCells(b, &fam, metrics.Sample{}), "no samples yet</td>\n</tr>"...)
		}
		for _, smp := range fam.Samples {
			b = appendFamilyCells(b, &fam, smp)
			switch h := smp.Hist; {
			case h == nil:
				b = appendText(b, strconv.FormatFloat(smp.Value, 'g', -1, 64))
			case h.Count == 0:
				b = append(b, "no observations"...)
			default:
				b = appendUint(b, "count ", h.Count)
				b = appendSeconds(append(b, " · mean "...), h.Sum/float64(h.Count))
				b = appendSeconds(append(b, " · p50 "...), h.Quantile(0.5))
				b = appendSeconds(append(b, " · p99 "...), h.Quantile(0.99))
			}
			b = append(b, "</td>\n</tr>"...)
		}
	}
	return b
}

// appendFamilyCells opens a family table row: the family's name (help
// text on hover), kind and the sample's labels, then the value cell.
func appendFamilyCells(b []byte, fam *metrics.FamilySnapshot, smp metrics.Sample) []byte {
	b = appendText(append(b, "<tr>\n<td title=\""...), fam.Help)
	b = appendText(append(b, "\">"...), fam.Name)
	b = appendText(append(b, "</td><td>"...), string(fam.Kind))
	b = append(b, "</td><td>"...)
	for i, name := range smp.LabelNames {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendText(append(appendText(b, name), '='), smp.LabelValues[i])
	}
	return append(b, "</td><td>"...)
}

func labelsMatch(have, want []string) bool {
	if len(have) != len(want) {
		return false
	}
	for i := range want {
		if have[i] != want[i] {
			return false
		}
	}
	return true
}

// appendSeconds appends a duration in seconds with a sensible unit.
func appendSeconds(b []byte, s float64) []byte {
	switch {
	case math.IsNaN(s):
		return append(b, "—"...)
	case s < 1e-3:
		return append(appendFloat(b, s*1e6, 0), "µs"...)
	case s < 1:
		return append(appendFloat(b, s*1e3, 2), "ms"...)
	default:
		return append(appendFloat(b, s, 3), 's')
	}
}
