package dashboard

import (
	"bytes"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/analysis"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// The html/template page set and the handlers that filled it, which
// the typed page appenders replaced, kept as the parity reference. The
// page set holds the former row bodies of rows_test.go; refServer
// serves every HTML page through it, the topology and SVG charts
// through topology_test.go's parent renderers.

const parentPageTemplates = `
{{define "head"}}<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body{font-family:system-ui,sans-serif;margin:24px;color:#111}
table{border-collapse:collapse;margin:12px 0}
th,td{border:1px solid #d1d5db;padding:4px 10px;font-size:13px;text-align:left}
th{background:#f3f4f6}
.up{color:#16a34a;font-weight:600}.down{color:#dc2626;font-weight:600}
nav a{margin-right:16px}
.alert{background:#fef2f2;border:1px solid #fecaca;padding:6px 10px;margin:4px 0;font-size:13px}
h1{font-size:20px}h2{font-size:16px}
.meta{color:#6b7280;font-size:12px}
</style></head><body>
<h1>{{.Title}}</h1>
<nav><a href="/">Overview</a><a href="/traffic">Traffic</a><a href="/topology">Topology</a><a href="/alerts">Alerts</a><a href="/health">Health</a></nav>
{{end}}
{{define "foot"}}</body></html>{{end}}

{{define "overview"}}{{template "head" .}}
<p class="meta">record time {{.Now}} · {{.Stats.BatchesIngested}} batches · {{.Stats.RecordsIngested}} records ingested{{if .HavePDR}} · network PDR {{.PDR}}{{end}}</p>
{{range .Alerts}}<div class="alert"><b>{{.Kind}}</b> [{{.Severity}}] {{.Message}}</div>{{end}}
<h2>Nodes</h2>
<table><tr><th>Node</th><th>Status</th><th>Last beat</th><th>Uptime</th><th>Routes</th><th>Queue</th><th>Duty</th><th>Battery</th><th>Batches</th><th>Lost</th><th>Firmware</th></tr>
` + refNodeRows + `
</table>
{{template "foot" .}}{{end}}

{{define "node"}}{{template "head" .}}
<h2>Node {{.ID}}</h2>
<p class="meta">first seen {{printf "%.0fs" .Info.FirstSeenTS}} · last batch {{printf "%.0fs" .Info.LastSeenTS}} · {{.Info.Records}} records</p>
{{if .Stats}}
<table><tr><th>hello tx/rx</th><th>data tx/rx</th><th>fwd</th><th>delivered</th><th>overheard</th><th>drops (route/ttl/queue/ack)</th><th>retries</th></tr>
<tr><td>{{.Stats.HelloSent}}/{{.Stats.HelloRecv}}</td><td>{{.Stats.DataSent}}/{{.Stats.DataRecv}}</td>
<td>{{.Stats.Forwarded}}</td><td>{{.Stats.Delivered}}</td><td>{{.Stats.Overheard}}</td>
<td>{{.Stats.DropNoRoute}}/{{.Stats.DropTTL}}/{{.Stats.DropQueueFull}}/{{.Stats.DropAckTimeout}}</td>
<td>{{.Stats.RetriesSpent}}</td></tr></table>
{{end}}
<h2>Routing table</h2>
<table><tr><th>Destination</th><th>Next hop</th><th>Metric</th><th>Age</th><th>SNR</th></tr>
{{range .Routes}}<tr><td>{{.Dst}}</td><td>{{.NextHop}}</td><td>{{.Metric}}</td><td>{{printf "%.0fs" .AgeS}}</td><td>{{printf "%.1f" .SNRdB}} dB</td></tr>{{end}}
</table>
<h2>Route changes</h2>
<table><tr><th>t</th><th>Destination</th><th>Next hop</th><th>Metric</th></tr>
{{with .Info.RouteHistory}}` + refChangeRows + `{{end}}</table>
<h2>Charts</h2>
{{range .Charts}}<div><img src="{{.}}" alt="chart"></div>{{end}}
{{template "foot" .}}{{end}}

{{define "traffic"}}{{template "head" .}}
<h2>Recent LoRa packets</h2>
<table><tr><th>t</th><th>Node</th><th>Event</th><th>Type</th><th>Src</th><th>Dst</th><th>Via</th><th>Seq</th><th>TTL</th><th>Bytes</th><th>RSSI</th><th>SNR</th><th>Reason</th></tr>
` + refPacketRows + `
</table>
{{template "foot" .}}{{end}}

{{define "alerts"}}{{template "head" .}}
<h2>Active alerts</h2>
{{if .Active}}<table><tr><th>Since</th><th>Severity</th><th>Kind</th><th>Node</th><th>Message</th></tr>
{{range .Active}}<tr><td>{{printf "%.0fs" .FiredAt}}</td><td>{{.Severity}}</td><td>{{.Kind}}</td><td>{{.Node}}</td><td>{{.Message}}</td></tr>{{end}}
</table>{{else}}<p class="meta">none</p>{{end}}
<h2>Resolved</h2>
{{if .History}}<table><tr><th>Fired</th><th>Resolved</th><th>Severity</th><th>Kind</th><th>Node</th><th>Message</th></tr>
{{range .History}}<tr><td>{{printf "%.0fs" .FiredAt}}</td><td>{{printf "%.0fs" .ResolvedAt}}</td><td>{{.Severity}}</td><td>{{.Kind}}</td><td>{{.Node}}</td><td>{{.Message}}</td></tr>{{end}}
</table>{{else}}<p class="meta">none</p>{{end}}
{{template "foot" .}}{{end}}

{{define "topology"}}{{template "head" .}}
<h2>Topology</h2>
{{.SVG}}
{{template "foot" .}}{{end}}

{{define "health"}}{{template "head" .}}
<h2>Server health</h2>
{{if .Stats}}<table><tr>{{range .Stats}}<th>{{.Label}}</th>{{end}}</tr>
<tr>{{range .Stats}}<td>{{.Value}}</td>{{end}}</tr></table>
{{else}}<p class="meta">no self-observability metrics recorded yet</p>{{end}}
{{if .Routes}}<h2>API routes</h2>
<table><tr><th>Route</th><th>Requests</th><th>Errors</th><th>p50</th><th>p99</th></tr>
{{range .Routes}}<tr><td>{{.Route}}</td><td>{{.Requests}}</td><td>{{.Errors}}</td><td>{{.P50}}</td><td>{{.P99}}</td></tr>{{end}}
</table>{{end}}
<h2>All metric families</h2>
<table><tr><th>Family</th><th>Kind</th><th>Labels</th><th>Value</th></tr>
{{range .Families}}{{$f := .}}{{range .Samples}}<tr>
<td title="{{$f.Help}}">{{$f.Name}}</td><td>{{$f.Kind}}</td><td>{{.Labels}}</td><td>{{.Summary}}</td>
</tr>{{end}}{{end}}
</table>
{{template "foot" .}}{{end}}
`

var parentPages = template.Must(template.New("dash").Parse(parentPageTemplates))

func refRender(w http.ResponseWriter, page string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := parentPages.ExecuteTemplate(w, page, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// refServer serves s's data through the parent handlers and page set:
// every HTML page, /health included, and the SVG charts. Only the chart
// JSON twin goes to the current handler.
func refServer(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", refHandleOverview(s))
	mux.HandleFunc("GET /node/{id}", refHandleNode(s))
	mux.HandleFunc("GET /traffic", func(w http.ResponseWriter, _ *http.Request) {
		refRender(w, "traffic", struct {
			Title   string
			Packets []wire.PacketRecord
		}{s.cfg.Title, s.coll.Recent(100)})
	})
	mux.HandleFunc("GET /topology", refHandleTopology(s))
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, _ *http.Request) {
		data := struct {
			Title   string
			Active  []alert.Alert
			History []alert.Alert
		}{Title: s.cfg.Title}
		if s.engine != nil {
			data.Active = s.engine.Active()
			data.History = s.engine.History()
		}
		refRender(w, "alerts", data)
	})
	mux.HandleFunc("GET /health", refHandleHealth(s))
	mux.HandleFunc("GET /chart/{metric}", refHandleChart(s))
	return mux
}

func refHandleOverview(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		now := s.coll.MaxTS()
		data := struct {
			Title   string
			Now     string
			Nodes   []refNodeRow
			Alerts  []alert.Alert
			Stats   collector.Stats
			PDR     string
			HavePDR bool
		}{
			Title: s.cfg.Title,
			Now:   fmt.Sprintf("%.0fs", now),
			Nodes: refNodeRowsFor(s.coll.Nodes(), now, s.cfg.DownAfterS),
			Stats: s.coll.Stats(),
		}
		if s.engine != nil {
			data.Alerts = s.engine.Active()
		}
		if pdr, ok := analysis.NetworkPDRFromStats(s.coll); ok {
			data.PDR = fmt.Sprintf("%.1f%%", 100*pdr)
			data.HavePDR = true
		}
		refRender(w, "overview", data)
	}
}

func refHandleNode(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := collector.ParseNodeID(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		info, ok := s.coll.Node(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		data := struct {
			Title  string
			ID     string
			Info   collector.NodeInfo
			Stats  *wire.NodeStats
			Routes []wire.RouteEntry
			Charts []template.URL
		}{Title: s.cfg.Title, ID: id.String(), Info: info, Stats: info.LastStats}
		if info.LastRoutes != nil {
			data.Routes = info.LastRoutes.Routes
		}
		metrics := []string{
			"mesh_packet_rssi", "node_route_count", "node_queue_len", "node_duty_cycle",
		}
		if info.LastStats != nil && info.LastStats.Energy {
			metrics = append(metrics, "node_battery_frac", "node_harvest_w")
		}
		for _, metric := range metrics {
			data.Charts = append(data.Charts,
				template.URL(fmt.Sprintf("/chart/%s.svg?node=%s", metric, id)))
		}
		refRender(w, "node", data)
	}
}

// The health panel's former string rows.

type refHealthStat struct {
	Label string
	Value string
}

type refHealthRoute struct {
	Route    string
	Requests string
	Errors   string
	P50      string
	P99      string
}

type refHealthSample struct {
	Labels  string
	Summary string
}

type refHealthFamily struct {
	Name    string
	Kind    string
	Help    string
	Samples []refHealthSample
}

func refHandleHealth(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		reg := s.coll.Metrics()
		data := struct {
			Title    string
			Stats    []refHealthStat
			Routes   []refHealthRoute
			Families []refHealthFamily
		}{Title: s.cfg.Title}

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
		statS := func(label, value string) {
			data.Stats = append(data.Stats, refHealthStat{Label: label, Value: value})
		}
		stat := func(label, format string, v float64) {
			statS(label, fmt.Sprintf(format, v))
		}

		if v, ok := counterVal("meshmon_ingest_batches_total", "ok"); ok {
			stat("batches ingested", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_ingest_batches_total", "dup"); ok {
			stat("dup batches dropped", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_ingest_batches_total", "rejected"); ok {
			stat("batches rejected", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_ingest_records_total"); ok {
			stat("records ingested", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_ingest_bytes_total"); ok {
			stat("ingest bytes (HTTP)", "%.0f", v)
		}
		if fam, ok := reg.Family("meshmon_ingest_latency_seconds"); ok && len(fam.Samples) > 0 {
			if h := fam.Samples[0].Hist; h != nil && h.Count > 0 {
				statS("ingest p50", refFmtSeconds(h.Quantile(0.5)))
				statS("ingest p99", refFmtSeconds(h.Quantile(0.99)))
			}
		}
		if v, ok := counterVal("meshmon_tsdb_points"); ok {
			stat("tsdb points", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_tsdb_series"); ok {
			stat("tsdb series", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_tsdb_compressed_bytes"); ok {
			stat("tsdb compressed bytes", "%.0f", v)
		}
		if bps, ok := counterVal("meshmon_tsdb_bytes_per_sample"); ok && bps > 0 {
			statS("tsdb compression", fmt.Sprintf("%.1fx (%.2f B/sample)", 16/bps, bps))
		}
		if v, ok := counterVal("meshmon_alert_active"); ok {
			stat("active alerts", "%.0f", v)
		}
		hits, okH := counterVal("meshmon_read_cache_requests_total", "hit")
		misses, okM := counterVal("meshmon_read_cache_requests_total", "miss")
		if okH && okM && hits+misses > 0 {
			statS("panel cache hit rate", fmt.Sprintf("%.1f%% (%.0f/%.0f)",
				100*hits/(hits+misses), hits, hits+misses))
		}
		if v, ok := counterVal("meshmon_read_cache_entries"); ok {
			stat("panel cache entries", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_read_sse_clients"); ok {
			stat("sse clients", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_read_sse_dropped_total"); ok {
			stat("sse events dropped", "%.0f", v)
		}
		if v, ok := counterVal("meshmon_read_delta_bytes_total"); ok {
			stat("delta bytes sent", "%.0f", v)
		}

		data.Routes = refHTTPRouteRows(reg)
		data.Families = refFamilyRows(reg)
		refRender(w, "health", data)
	}
}

func refHTTPRouteRows(reg *metrics.Registry) []refHealthRoute {
	reqs, ok := reg.Family("meshmon_http_requests_total")
	if !ok {
		return nil
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
	out := make([]refHealthRoute, 0, len(names))
	for _, r := range names {
		row := refHealthRoute{
			Route:    r,
			Requests: fmt.Sprintf("%.0f", routes[r].total),
			Errors:   fmt.Sprintf("%.0f", routes[r].errors),
			P50:      "—",
			P99:      "—",
		}
		if h := latByRoute[r]; h != nil && h.Count > 0 {
			row.P50 = refFmtSeconds(h.Quantile(0.5))
			row.P99 = refFmtSeconds(h.Quantile(0.99))
		}
		out = append(out, row)
	}
	return out
}

func refFamilyRows(reg *metrics.Registry) []refHealthFamily {
	var out []refHealthFamily
	for _, fam := range reg.Snapshot() {
		hf := refHealthFamily{Name: fam.Name, Kind: string(fam.Kind), Help: fam.Help}
		if len(fam.Samples) == 0 {
			hf.Samples = append(hf.Samples, refHealthSample{Summary: "no samples yet"})
		}
		for _, smp := range fam.Samples {
			row := refHealthSample{Labels: refLabelText(smp.LabelNames, smp.LabelValues)}
			if smp.Hist != nil {
				h := smp.Hist
				if h.Count == 0 {
					row.Summary = "no observations"
				} else {
					row.Summary = fmt.Sprintf("count %d · mean %s · p50 %s · p99 %s",
						h.Count, refFmtSeconds(h.Sum/float64(h.Count)),
						refFmtSeconds(h.Quantile(0.5)), refFmtSeconds(h.Quantile(0.99)))
				}
			} else {
				row.Summary = fmt.Sprintf("%g", smp.Value)
			}
			hf.Samples = append(hf.Samples, row)
		}
		out = append(out, hf)
	}
	return out
}

func refLabelText(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = names[i] + "=" + values[i]
	}
	return strings.Join(parts, ", ")
}

func refFmtSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "—"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// fixedAlerts stands a fixed alert set in for the engine.
type fixedAlerts struct{ active, history []alert.Alert }

func (f fixedAlerts) Active() []alert.Alert  { return f.active }
func (f fixedAlerts) History() []alert.Alert { return f.history }
func (f fixedAlerts) Generation() uint64     { return 0 }

// hostileAlerts carries markup, entity characters, NUL, invalid UTF-8
// and U+2028 in kinds and messages, unnamed severities, and special
// floats in both times.
var hostileAlerts = fixedAlerts{
	active: []alert.Alert{
		{Kind: `<script>&'"+`, Node: 0xFFFF, Severity: alert.SeverityCritical, FiredAt: 12.5,
			Message: "a<b & \"c\" + 'd'\x00\xff\u2028"},
		{Kind: alert.KindNodeDown, Node: 0, Severity: alert.Severity(7), FiredAt: math.Inf(1)},
		{Kind: "", Node: 3, Severity: 0, FiredAt: -0.5, Message: "&amp; é �"},
	},
	history: []alert.Alert{
		{Kind: "a+b", Node: 1, Severity: alert.SeverityWarning, FiredAt: math.NaN(), ResolvedAt: math.Copysign(0, -1),
			Resolved: true, Message: "<>&'\"+"},
		{Kind: alert.KindLowBattery, Node: 0xABCD, Severity: alert.SeverityCritical, FiredAt: 1e21,
			ResolvedAt: math.Inf(-1), Resolved: true, Message: "battery at 15% (3.30 V)"},
	},
}

// regView serves a collector with a stand-in metrics registry.
type regView struct {
	collector.View
	reg *metrics.Registry
}

func (v regView) Metrics() *metrics.Registry { return v.reg }

// comparePages serves each path from a dashboard over c and alerts and
// from the parent handlers over the same data, and requires the same
// status, content type and bytes.
func comparePages(t *testing.T, name string, c collector.View, alerts alertSource, cfg Config, paths ...string) {
	t.Helper()
	cur, ref := New(c, nil, cfg), New(c, nil, cfg)
	defer cur.Close()
	defer ref.Close()
	cur.engine, ref.engine = alerts, alerts
	curH, refH := cur.Handler(), refServer(ref)
	for _, path := range paths {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		curH.ServeHTTP(got, httptest.NewRequest("GET", path, nil))
		refH.ServeHTTP(want, httptest.NewRequest("GET", path, nil))
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s %s: page differs from the parent (status %d vs %d, type %q vs %q)\n got %q\nwant %q",
				name, path, got.Code, want.Code, got.Header().Get("Content-Type"), want.Header().Get("Content-Type"),
				got.Body.String(), want.Body.String())
		}
	}
}

// pagesCollector is seedCollector plus a node with hostile firmware,
// packet type and drop reason, a node whose routes changed, and a
// battery node with a full stats report, non-finite voltage and uptime
// and a routing table of rounding ties. Two requests through the API
// handler, one refused, give the health panel HTTP route rows.
func pagesCollector(t *testing.T) *collector.Collector {
	t.Helper()
	c := seedCollector(t)
	batches := []wire.Batch{
		{Node: 3, SeqNo: 1, SentAt: 100,
			Heartbeats: []wire.Heartbeat{{TS: 99, Node: 3, UptimeS: 99, Firmware: "<b>&'\"+\u2028\x00"}},
			Packets: []wire.PacketRecord{{TS: 98.25, Node: 3, Event: wire.EventDrop, Type: "DA<TA>", Src: 3, Dst: 0xABCD,
				Via: 1, Seq: 65535, TTL: 255, Size: 30, Reason: "queue & \"full\" + 'x'"}}},
		{Node: 1, SeqNo: 2, SentAt: 200, Routes: []wire.RouteSnapshot{{TS: 190, Node: 1,
			Routes: []wire.RouteEntry{{Dst: 3, NextHop: 2, Metric: 2, AgeS: 5}, {Dst: 0xFFFE, NextHop: 3, Metric: 255}}}}},
		{Node: 4, SeqNo: 1, SentAt: 150,
			Heartbeats: []wire.Heartbeat{{TS: 149.5, Node: 4, UptimeS: math.Inf(1), Firmware: "solar-2.1+rc"}},
			Stats: []wire.NodeStats{{TS: 148, Node: 4, UptimeS: 148, HelloSent: 1 << 40, DataSent: 2, AckSent: 3,
				Forwarded: 4, HelloRecv: 5, DataRecv: 6, AckRecv: 7, Overheard: 8, Delivered: 9, DupSuppressed: 10,
				DropNoRoute: 11, DropTTL: 12, DropQueueFull: 13, DropAckTimeout: 1<<64 - 1, RetriesSpent: 15,
				RouteCount: 4, QueueLen: 3, DutyCycleUsed: 0.0125, Energy: true, BatteryFrac: 0.155,
				BatteryV: math.Inf(1), HarvestW: 0.5}},
			Routes: []wire.RouteSnapshot{{TS: 147, Node: 4, Routes: []wire.RouteEntry{
				{Dst: 1, NextHop: 1, Metric: 1, AgeS: 2.5, SNRdB: -7.25},
				{Dst: 2, NextHop: 1, Metric: 2, AgeS: 0.5, SNRdB: 0.05},
				{Dst: 0xFFFF, NextHop: 0, Metric: 255, AgeS: 1e16, SNRdB: -0.05},
			}}}},
	}
	for _, b := range batches {
		if err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	api := c.APIHandler()
	for _, body := range []string{`{"node":5,"seq_no":1,"sent_at":120}`, `{"node":`} {
		api.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/api/v1/ingest", strings.NewReader(body)))
	}
	return c
}

// TestPagesMatchParentTemplates renders every HTML page, /health
// included, for seeded collectors (pagesCollector and the battery
// fixture) under the collector's own alert engine, a hostile fixed
// alert set and no engine, and requires the bytes the parent page set
// and handlers produced. Nothing ingests between the two renders of a
// page, so /health compares one fixed set of registry values.
func TestPagesMatchParentTemplates(t *testing.T) {
	seeds := map[string]func(*testing.T) *collector.Collector{
		"seeded": pagesCollector,
		"energy": seedEnergyCollector,
		"empty":  func(*testing.T) *collector.Collector { return collector.New(tsdb.New(), collector.DefaultConfig()) },
	}
	paths := []string{"/", "/traffic", "/node/N0001", "/node/N0002", "/node/N0003", "/node/N0004", "/node/N0999",
		"/node/bogus", "/topology", "/alerts", "/health",
		"/chart/mesh_packet_rssi.svg", "/chart/node_battery_frac.svg?node=N0001", "/chart/none.svg"}
	for name, seed := range seeds {
		c := seed(t)
		eng := alert.NewEngine(c, alert.Config{})
		eng.Instrument(c.Metrics())
		eng.Check(c.MaxTS())
		eng.Check(c.MaxTS() + 1000) // everything silent: node-down fires
		for _, cfg := range []Config{{DisableCache: true}, {DisableCache: true, Title: `Mesh <"A&B">`, DownAfterS: 1e9}} {
			comparePages(t, name+"/engine", c, eng, cfg, paths...)
			comparePages(t, name+"/hostile alerts", c, hostileAlerts, cfg, paths...)
			comparePages(t, name+"/no engine", c, nil, cfg, paths...)
		}
	}
}

// TestHealthMatchesParent: /health against the parent with the
// registry held fixed between the two renders — the collector's own
// registry carrying the dashboard's read-path families after cached
// reads, a hand-built registry with hostile help and label text,
// special values, empty and unobserved families and HTTP route rows
// with and without latency, and an empty registry.
func TestHealthMatchesParent(t *testing.T) {
	c := pagesCollector(t)
	shared := New(c, nil, Config{Metrics: c.Metrics()})
	defer shared.Close()
	h := shared.Handler()
	for _, path := range []string{"/", "/", "/alerts", "/node/N0001", "/node/N0001"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	comparePages(t, "shared registry", c, nil, Config{DisableCache: true}, "/health")

	reg := metrics.NewRegistry()
	batches := reg.NewCounterVec("meshmon_ingest_batches_total", `Batches <by> "result" & 'more' +1`, "result")
	batches.With("ok").Add(1e21)
	batches.With("dup").Add(3)
	batches.With("rejected")
	reg.NewGauge("meshmon_ingest_records_total", "").Set(math.Inf(1))
	reg.NewGauge("meshmon_ingest_bytes_total", "").Set(math.NaN())
	lat := reg.NewHistogram("meshmon_ingest_latency_seconds", "ingest", nil)
	for _, v := range []float64{0.0004, 0.02, 3, 250} {
		lat.Observe(v)
	}
	reg.NewGaugeFunc("meshmon_tsdb_bytes_per_sample", "", func() float64 { return 1.37 })
	reg.NewGauge("meshmon_tsdb_points", "").Set(math.Copysign(0, -1))
	reg.NewGauge("meshmon_tsdb_series", "").Set(1e-7)
	reg.NewGauge("meshmon_alert_active", "").Set(2.5)
	cache := reg.NewCounterVec("meshmon_read_cache_requests_total", "", "result")
	cache.With("hit").Add(7)
	cache.With("miss").Add(2)
	reg.NewGauge("meshmon_read_sse_clients", "").Set(math.Inf(-1))
	reqs := reg.NewCounterVec("meshmon_http_requests_total", "", "route", "code")
	reqs.With("/api/<v1>&'", "200").Add(5)
	reqs.With("/api/<v1>&'", "503").Add(2)
	reqs.With("/x", "404").Inc()
	reg.NewHistogramVec("meshmon_http_request_seconds", "", nil, "route").With("/x").Observe(1e-5)
	reg.NewCounterVec("meshmon_empty_total", "no children yet", "a", "b")
	reg.NewHistogramVec("meshmon_zero_seconds", "", nil, "k").With("v\x00\xff")
	reg.NewCounterVec("meshmon_labels_total", "", "a", "b+").With("<x>", "\u2028").Add(4)
	comparePages(t, "hand-built registry", regView{c, reg}, nil, Config{DisableCache: true}, "/health")

	comparePages(t, "empty registry", regView{c, metrics.NewRegistry()}, nil, Config{DisableCache: true}, "/health")
}

// FuzzPageText sends arbitrary titles, firmware strings, alert kinds
// and messages and packet text through every HTML page of both
// renderers.
func FuzzPageText(f *testing.F) {
	f.Add("LoRa Mesh Monitor", "fw1", "node-down", "N0001 silent for 95s", 95.0)
	f.Add("<b>&'\"+\x00\xff", "<script>\u2028", "a+b", "\xe2\x80 & <", math.Inf(1))
	f.Add("", "", "", "", math.NaN())
	f.Fuzz(func(t *testing.T, title, firmware, kind, message string, at float64) {
		c := collector.New(tsdb.New(), collector.DefaultConfig())
		err := c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 10,
			Heartbeats: []wire.Heartbeat{{TS: 10, Node: 1, UptimeS: at, Firmware: firmware}},
			Packets: []wire.PacketRecord{{TS: 9, Node: 1, Event: wire.EventDrop, Type: kind + "x", Src: 1, Dst: 2,
				Size: 1, Reason: message + "y"}}})
		if err != nil {
			t.Fatal(err)
		}
		alerts := fixedAlerts{
			active: []alert.Alert{{Kind: alert.Kind(kind), Node: 1, Severity: alert.SeverityWarning, FiredAt: at,
				Message: message}},
			history: []alert.Alert{{Kind: alert.Kind(message), Node: 2, Severity: alert.SeverityCritical, FiredAt: 1,
				ResolvedAt: at, Resolved: true, Message: kind}},
		}
		comparePages(t, "fuzz", c, alerts, Config{Title: title, DisableCache: true},
			"/", "/node/N0001", "/traffic", "/alerts", "/health", "/topology")
	})
}

// TestAlertHistoryBoundRendered: an engine that has resolved more
// alerts than its history keeps renders exactly the newest ones.
func TestAlertHistoryBoundRendered(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	eng := alert.NewEngine(c, alert.Config{HeartbeatTimeoutS: 10})
	seq := uint64(0)
	beat := func(ts float64) {
		seq++
		if err := c.Ingest(wire.Batch{Node: 1, SeqNo: seq, SentAt: ts,
			Heartbeats: []wire.Heartbeat{{TS: ts, Node: 1, UptimeS: ts}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Each cycle: silence fires node-down at 100k+20, a beat resolves it.
	const cycles = alert.HistoryLen + 40
	for k := 0; k < cycles; k++ {
		base := float64(100 * k)
		beat(base)
		eng.Check(base + 20)
		beat(base + 30)
		eng.Check(base + 30)
	}
	hist := eng.History()
	if len(hist) != alert.HistoryLen {
		t.Fatalf("history holds %d alerts, want %d", len(hist), alert.HistoryLen)
	}
	rec := httptest.NewRecorder()
	New(c, eng, Config{DisableCache: true}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	body := rec.Body.String()
	if n := strings.Count(body, "<td>node-down</td>"); n != alert.HistoryLen {
		t.Fatalf("alerts page shows %d resolved alerts, want %d", n, alert.HistoryLen)
	}
	row := func(k int) string {
		return fmt.Sprintf("<tr><td>%ds</td><td>%ds</td>", 100*k+20, 100*k+30)
	}
	if !strings.Contains(body, row(cycles-alert.HistoryLen)) || !strings.Contains(body, row(cycles-1)) ||
		strings.Contains(body, row(cycles-alert.HistoryLen-1)) {
		t.Fatalf("alerts page does not show exactly cycles %d to %d", cycles-alert.HistoryLen, cycles-1)
	}
	comparePages(t, "bounded history", c, eng, Config{DisableCache: true}, "/alerts")
}
