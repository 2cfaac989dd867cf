// Package dashboard serves the monitoring server's web UI — the
// dashboard through which the paper's server "visualizes the
// information": a network overview, per-node detail pages with charts,
// a live traffic view, an inferred-topology graph and the active alerts.
// Everything is rendered server-side, so the whole system stays
// stdlib-only: page skeletons and small panels with html/template, the
// two large tables (overview nodes, traffic packets) with typed row
// appenders (rows.go), and charts and the topology graph as hand-rolled
// SVG.
package dashboard

import (
	"fmt"
	"html/template"
	"math/bits"
	"net/http"
	"time"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/analysis"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/readcache"
	"lorameshmon/internal/wire"
)

// Config tunes the dashboard.
type Config struct {
	// Title heads every page.
	Title string
	// DownAfterS marks a node down when its last heartbeat is older than
	// this many seconds (display only; alerting has its own threshold).
	DownAfterS float64
	// SF is the network's spreading factor, used for link margins.
	SF phy.SpreadingFactor
	// Metrics receives the read path's meshmon_read_* families. Nil gets
	// a private registry, so two dashboards over one collector (tests,
	// cache-bypass comparisons) never double-register.
	Metrics *metrics.Registry
	// DisableCache turns off the per-panel response cache, re-rendering
	// every request (the pre-streaming behaviour).
	DisableCache bool
	// CacheEntries bounds the response cache (default 512).
	CacheEntries int
	// SSEQueue bounds each SSE subscriber's event queue (default 16);
	// overflow coalesces events rather than stalling the hub.
	SSEQueue int
	// StreamTick is the hub's fallback poll interval for changes that
	// arrive without an ingest, i.e. alert transitions (default 250ms).
	StreamTick time.Duration
}

// DefaultConfig titles the dashboard and marks nodes down after 90 s.
func DefaultConfig() Config {
	return Config{Title: "LoRa Mesh Monitor", DownAfterS: 90, SF: phy.SF7}
}

// Server renders the dashboard for one collector (and optional alert
// engine). It reads through the collector.View interface only, never
// the concrete type.
type Server struct {
	coll   collector.View
	engine *alert.Engine // may be nil
	cfg    Config
	tmpl   *template.Template
	// epoch is the read path's composite invalidation clock: ingest
	// epoch + alert generation. Panels render collector state AND alert
	// state, and alert transitions happen on the Check cadence without
	// an ingest to bump the epoch — folding the generation in keeps the
	// alerts panel (and overview banner) from caching stale.
	epoch func() uint64
	inst  *readcache.Instruments
	cache *readcache.Cache // nil when DisableCache
	hub   *streamHub
}

// New builds a dashboard server. engine may be nil to omit alerts.
func New(coll collector.View, engine *alert.Engine, cfg Config) *Server {
	d := DefaultConfig()
	if cfg.Title == "" {
		cfg.Title = d.Title
	}
	if cfg.DownAfterS <= 0 {
		cfg.DownAfterS = d.DownAfterS
	}
	if !cfg.SF.Valid() {
		cfg.SF = d.SF
	}
	s := &Server{
		coll:   coll,
		engine: engine,
		cfg:    cfg,
		tmpl:   template.Must(template.New("dash").Parse(pageTemplates)),
	}
	s.epoch = func() uint64 {
		e := coll.Epoch()
		if engine != nil {
			e += engine.Generation()
		}
		return e
	}
	s.inst = readcache.NewInstruments(cfg.Metrics)
	if !cfg.DisableCache {
		s.cache = readcache.New(readcache.Config{
			Epoch:      s.epoch,
			MaxEntries: cfg.CacheEntries,
			Inst:       s.inst,
		})
	}
	s.hub = newStreamHub(coll, engine, s.epoch, s.inst, cfg.SSEQueue, cfg.StreamTick)
	return s
}

// Close stops the SSE hub; in-flight subscribers drain their queued
// deltas and hang up. Call it before shutting the HTTP server down.
func (s *Server) Close() { s.hub.Close() }

// Epoch exposes the composite invalidation clock (tests, clients
// priming a long-poll `since`).
func (s *Server) Epoch() uint64 { return s.epoch() }

// Handler returns the dashboard routes:
//
//	GET /                     overview
//	GET /node/{id}            node detail
//	GET /traffic              recent packet records
//	GET /topology             inferred topology graph (SVG inline)
//	GET /alerts               active alerts and resolution history
//	GET /health               server self-observability panel
//	GET /chart/{metric}.svg   metric chart (query: node, from, to, width, step, agg)
//	GET /chart/{metric}.json  same series as JSON (plus ?reduce= scalar pushdown)
//	GET /events               SSE delta stream (epoch + changed panels)
//	GET /events/poll          long-poll fallback (query: since, timeout)
//
// Panel routes are served through the epoch-keyed response cache
// unless DisableCache is set. /health is deliberately uncached: it
// renders live self-metrics (including the cache's own counters),
// which change on every request. The streaming routes are exempt by
// nature.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	panel := func(name string, h http.HandlerFunc) http.Handler {
		if s.cache == nil {
			return h
		}
		return s.cache.Wrap(name, h)
	}
	mux.Handle("GET /{$}", panel("overview", s.handleOverview))
	mux.Handle("GET /node/{id}", panel("node", s.handleNode))
	mux.Handle("GET /traffic", panel("traffic", s.handleTraffic))
	mux.Handle("GET /topology", panel("topology", s.handleTopology))
	mux.Handle("GET /alerts", panel("alerts", s.handleAlerts))
	mux.HandleFunc("GET /health", s.handleHealth)
	mux.Handle("GET /chart/{metric}", panel("chart", http.HandlerFunc(s.handleChart)))
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /events/poll", s.handleEventsPoll)
	return mux
}

type overviewData struct {
	Title   string
	Now     string
	Rows    template.HTML // node table rows, see appendOverviewRows
	Alerts  []alert.Alert
	Stats   collector.Stats
	PDR     string
	HavePDR bool
}

func (s *Server) handleOverview(w http.ResponseWriter, _ *http.Request) {
	now := s.coll.MaxTS()
	nodes := s.coll.Nodes()
	data := overviewData{
		Title: s.cfg.Title,
		Now:   fmt.Sprintf("%.0fs", now),
		Rows:  template.HTML(appendOverviewRows(make([]byte, 0, rowBytes*len(nodes)), nodes, now, s.cfg.DownAfterS)),
		Stats: s.coll.Stats(),
	}
	if s.engine != nil {
		data.Alerts = s.engine.Active()
	}
	if pdr, ok := analysis.NetworkPDRFromStats(s.coll); ok {
		data.PDR = fmt.Sprintf("%.1f%%", 100*pdr)
		data.HavePDR = true
	}
	s.render(w, "overview", data)
}

type nodeDetail struct {
	Title   string
	ID      string
	Info    collector.NodeInfo
	Stats   *wire.NodeStats
	Routes  []wire.RouteEntry
	Changes template.HTML // route-change rows, see appendRouteChangeRows
	Charts  []template.URL
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
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
	data := nodeDetail{Title: s.cfg.Title, ID: id.String(), Info: info, Stats: info.LastStats,
		Changes: template.HTML(appendRouteChangeRows(nil, info.RouteHistory))}
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
	s.render(w, "node", data)
}

type trafficData struct {
	Title string
	Rows  template.HTML // packet table rows, see appendTrafficRows
}

func (s *Server) handleTraffic(w http.ResponseWriter, _ *http.Request) {
	pkts := s.coll.Recent(100)
	rows := appendTrafficRows(make([]byte, 0, rowBytes*len(pkts)), pkts)
	s.render(w, "traffic", trafficData{Title: s.cfg.Title, Rows: template.HTML(rows)})
}

type alertsData struct {
	Title   string
	Active  []alert.Alert
	History []alert.Alert
}

func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	data := alertsData{Title: s.cfg.Title}
	if s.engine != nil {
		data.Active = s.engine.Active()
		data.History = s.engine.History()
	}
	s.render(w, "alerts", data)
}

// handleTopology draws every link the collector has heard, in one pass
// over one Links read: the vertices are the link ends plus every
// registered node (so failures stay visible), numbered in ID order, and
// a node is down when its last heartbeat is older than DownAfterS. A
// bidirectional pair draws as one line, labelled with the mean RSSI of
// the direction with the lower transmitter ID.
func (s *Server) handleTopology(w http.ResponseWriter, _ *http.Request) {
	links := s.coll.Links(0)
	infos := s.coll.Nodes()
	now := s.coll.MaxTS()

	set := new(nodeSet)
	for _, l := range links {
		set.add(l.Tx)
		set.add(l.Rx)
	}
	for _, info := range infos {
		set.add(info.ID)
	}
	g := svgTopology{Title: "Inferred topology (from HELLO receptions)", Size: 520}
	g.Nodes = set.number()
	for i, k := 0, 0; i < len(g.Nodes) && k < len(infos); i++ {
		// Both lists are sorted by ID, and every info is a vertex.
		if g.Nodes[i].ID == infos[k].ID {
			g.Nodes[i].Down = now-infos[k].LastBeatTS > s.cfg.DownAfterS
			k++
		}
	}
	g.Edges = make([]topoEdge, 0, len(links))
	for _, l := range links {
		// Links are sorted by (tx, rx), so of a pair the direction with
		// the lower transmitter comes first; the other is dropped.
		if l.Tx > l.Rx {
			if _, rev := collector.SearchLinks(links, l.Rx, l.Tx); rev {
				continue
			}
		}
		g.Edges = append(g.Edges, topoEdge{From: set.index(l.Tx), To: set.index(l.Rx), RSSI: l.MeanRSSI})
	}
	// The SVG bytes go straight into the response between the page's
	// head and foot: as a template.HTML value the ~300 KB graph would be
	// copied into a string and again through the template's fmt.Fprint.
	page := struct{ Title string }{s.cfg.Title}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.ExecuteTemplate(w, "topology", page); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(g.Render(), '\n'))       //nolint:errcheck
	s.tmpl.ExecuteTemplate(w, "foot", page) //nolint:errcheck // only a write can fail, mid-response
}

// nodeSet is a set over the 16-bit node address space that numbers its
// members in ID order: a bitmap, plus, once number has run, the count
// of members below each 64-ID word.
type nodeSet struct {
	bits [1 << 16 / 64]uint64
	rank [1 << 16 / 64]int32
}

func (s *nodeSet) add(id wire.NodeID) { s.bits[id/64] |= 1 << (id % 64) }

// number returns the members in ID order as topology vertices and
// fills rank for index.
func (s *nodeSet) number() []topoNode {
	n := 0
	for _, word := range s.bits {
		n += bits.OnesCount64(word)
	}
	nodes := make([]topoNode, 0, n)
	for w, word := range s.bits {
		s.rank[w] = int32(len(nodes))
		for ; word != 0; word &= word - 1 {
			nodes = append(nodes, topoNode{ID: wire.NodeID(w*64 + bits.TrailingZeros64(word))})
		}
	}
	return nodes
}

// index is a member's position in number's list.
func (s *nodeSet) index(id wire.NodeID) int {
	w := id / 64
	return int(s.rank[w]) + bits.OnesCount64(s.bits[w]&(1<<(id%64)-1))
}

// handleChartSVG serves `/chart/{metric}.svg?node=N0001&from=&to=`.
// Parsing and clamping are shared with the JSON endpoint; see
// parseChartQuery. Queries run at display resolution — one bucket per
// pixel column — so the store answers from the coarsest rollup tier
// that satisfies the step, and charting a week of telemetry reads
// rollup chunks instead of decoding millions of raw points.
func (s *Server) handleChartSVG(w http.ResponseWriter, r *http.Request, metric string) {
	cq, err := parseChartQuery(r.URL.Query(), metric, s.coll.MaxTS())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	chart := svgLineChart{Title: metric, Width: cq.Width, Height: 240}
	for _, res := range cq.results(s.coll.DB()) {
		chart.Series = append(chart.Series, chartSeries{Label: res.Labels.String(), Points: res.Points})
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, chart.Render()) //nolint:errcheck
}

func (s *Server) render(w http.ResponseWriter, page string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.ExecuteTemplate(w, page, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// pageTemplates holds all dashboard pages. A shared skeleton keeps the
// look consistent.
const pageTemplates = `
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
{{.Rows}}
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
{{.Changes}}</table>
<h2>Charts</h2>
{{range .Charts}}<div><img src="{{.}}" alt="chart"></div>{{end}}
{{template "foot" .}}{{end}}

{{define "traffic"}}{{template "head" .}}
<h2>Recent LoRa packets</h2>
<table><tr><th>t</th><th>Node</th><th>Event</th><th>Type</th><th>Src</th><th>Dst</th><th>Via</th><th>Seq</th><th>TTL</th><th>Bytes</th><th>RSSI</th><th>SNR</th><th>Reason</th></tr>
{{.Rows}}
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
{{/* handleTopology writes the SVG, a newline and "foot" after this */}}{{end}}

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
