// Package dashboard serves the monitoring server's web UI — the
// dashboard through which the paper's server "visualizes the
// information": a network overview, per-node detail pages with charts,
// a live traffic view, an inferred-topology graph and the active alerts.
// Everything is rendered server-side, so the whole system stays
// stdlib-only: each HTML page is appended into one byte slice from
// typed fields — a shared head and foot, table rows (rows.go), strings
// escaped exactly as html/template would — and written once; charts and
// the topology graph are hand-rolled SVG.
package dashboard

import (
	"math/bits"
	"net/http"
	"slices"
	"sync"
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
	engine alertSource // nil without an engine
	cfg    Config
	head   []byte // the page head, title escaped; see page
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

// alertSource is what the dashboard reads of an alert engine; tests
// stand fixed alert sets in for it.
type alertSource interface {
	Active() []alert.Alert
	History() []alert.Alert
	Generation() uint64
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
	s := &Server{coll: coll, cfg: cfg}
	if engine != nil { // a nil *alert.Engine must stay a nil alertSource
		s.engine = engine
	}
	s.head = append(appendText([]byte(headTitle), cfg.Title), headH1...)
	s.head = append(appendText(s.head, cfg.Title), headNav...)
	s.epoch = func() uint64 {
		e := coll.Epoch()
		if s.engine != nil {
			e += s.engine.Generation()
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
	s.hub = newStreamHub(coll, s.engine, s.epoch, s.inst, cfg.SSEQueue, cfg.StreamTick)
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

func (s *Server) handleOverview(w http.ResponseWriter, _ *http.Request) {
	now := s.coll.MaxTS()
	nodes := s.coll.Nodes()
	st := s.coll.Stats()
	buf, b := s.page(1024 + rowBytes*len(nodes))
	b = append(b, "\n<p class=\"meta\">record time "...)
	b = appendFloat(b, now, 0)
	b = appendUint(b, "s · ", st.BatchesIngested)
	b = appendUint(b, " batches · ", st.RecordsIngested)
	b = append(b, " records ingested"...)
	if pdr, ok := analysis.NetworkPDR(nodes); ok {
		b = append(b, " · network PDR "...)
		b = appendFloat(b, 100*pdr, 1)
		b = append(b, '%')
	}
	b = append(b, "</p>\n"...)
	if s.engine != nil {
		for _, a := range s.engine.Active() {
			b = append(b, `<div class="alert"><b>`...)
			b = appendText(b, string(a.Kind))
			b = append(b, "</b> ["...)
			b = appendText(b, a.Severity.String())
			b = append(b, "] "...)
			b = appendText(b, a.Message)
			b = append(b, "</div>"...)
		}
	}
	b = append(b, "\n<h2>Nodes</h2>\n<table><tr><th>Node</th><th>Status</th><th>Last beat</th><th>Uptime</th>"+
		"<th>Routes</th><th>Queue</th><th>Duty</th><th>Battery</th><th>Batches</th><th>Lost</th><th>Firmware</th></tr>\n"...)
	b = appendOverviewRows(b, nodes, now, s.cfg.DownAfterS)
	writePage(w, buf, append(b, "\n</table>\n"...))
}

// nodeCharts are the node page's charts; battery nodes get all six,
// the rest the first four.
var nodeCharts = [...]string{"mesh_packet_rssi", "node_route_count", "node_queue_len", "node_duty_cycle",
	"node_battery_frac", "node_harvest_w"}

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
	var routes []wire.RouteEntry
	if info.LastRoutes != nil {
		routes = info.LastRoutes.Routes
	}
	buf, b := s.page(2048 + 100*len(routes) + 100*routeChangeRows)
	b = append(b, "\n<h2>Node "...)
	b = id.Append(b)
	b = append(b, "</h2>\n<p class=\"meta\">first seen "...)
	b = appendFloat(b, info.FirstSeenTS, 0)
	b = append(b, "s · last batch "...)
	b = appendFloat(b, info.LastSeenTS, 0)
	b = appendUint(b, "s · ", info.Records)
	b = append(b, " records</p>\n"...)
	if st := info.LastStats; st != nil {
		b = appendUint(b, "\n<table><tr><th>hello tx/rx</th><th>data tx/rx</th><th>fwd</th><th>delivered</th>"+
			"<th>overheard</th><th>drops (route/ttl/queue/ack)</th><th>retries</th></tr>\n<tr><td>", st.HelloSent)
		b = appendUint(b, "/", st.HelloRecv)
		b = appendUint(b, "</td><td>", st.DataSent)
		b = appendUint(b, "/", st.DataRecv)
		b = appendUint(b, "</td>\n<td>", st.Forwarded)
		b = appendUint(b, "</td><td>", st.Delivered)
		b = appendUint(b, "</td><td>", st.Overheard)
		b = appendUint(b, "</td>\n<td>", st.DropNoRoute)
		b = appendUint(b, "/", st.DropTTL)
		b = appendUint(b, "/", st.DropQueueFull)
		b = appendUint(b, "/", st.DropAckTimeout)
		b = appendUint(b, "</td>\n<td>", st.RetriesSpent)
		b = append(b, "</td></tr></table>\n"...)
	}
	b = append(b, "\n<h2>Routing table</h2>\n"+
		"<table><tr><th>Destination</th><th>Next hop</th><th>Metric</th><th>Age</th><th>SNR</th></tr>\n"...)
	for _, e := range routes {
		b = append(b, "<tr><td>"...)
		b = e.Dst.Append(b)
		b = append(b, "</td><td>"...)
		b = e.NextHop.Append(b)
		b = appendUint(b, "</td><td>", uint64(e.Metric))
		b = append(b, "</td><td>"...)
		b = appendFloat(b, e.AgeS, 0)
		b = append(b, "s</td><td>"...)
		b = appendFloat(b, e.SNRdB, 1)
		b = append(b, " dB</td></tr>"...)
	}
	b = append(b, "\n</table>\n<h2>Route changes</h2>\n"+
		"<table><tr><th>t</th><th>Destination</th><th>Next hop</th><th>Metric</th></tr>\n"...)
	b = appendRouteChangeRows(b, info.RouteHistory)
	b = append(b, "</table>\n<h2>Charts</h2>\n"...)
	charts := nodeCharts[:4]
	if info.LastStats != nil && info.LastStats.Energy {
		charts = nodeCharts[:]
	}
	for _, metric := range charts {
		b = append(b, `<div><img src="/chart/`...)
		b = append(b, metric...)
		b = append(b, ".svg?node="...)
		b = id.Append(b)
		b = append(b, `" alt="chart"></div>`...)
	}
	writePage(w, buf, append(b, '\n'))
}

func (s *Server) handleTraffic(w http.ResponseWriter, _ *http.Request) {
	pkts := s.coll.Recent(100)
	buf, b := s.page(1024 + rowBytes*len(pkts))
	b = append(b, "\n<h2>Recent LoRa packets</h2>\n<table><tr><th>t</th><th>Node</th><th>Event</th><th>Type</th>"+
		"<th>Src</th><th>Dst</th><th>Via</th><th>Seq</th><th>TTL</th><th>Bytes</th><th>RSSI</th><th>SNR</th><th>Reason</th></tr>\n"...)
	b = appendTrafficRows(b, pkts)
	writePage(w, buf, append(b, "\n</table>\n"...))
}

func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	var active, history []alert.Alert
	if s.engine != nil {
		active, history = s.engine.Active(), s.engine.History()
	}
	buf, b := s.page(1024 + 200*(len(active)+len(history)))
	b = append(b, "\n<h2>Active alerts</h2>\n"...)
	b = appendAlertTable(b, "<th>Since</th>", active, false)
	b = append(b, "\n<h2>Resolved</h2>\n"...)
	b = appendAlertTable(b, "<th>Fired</th><th>Resolved</th>", history, true)
	writePage(w, buf, append(b, '\n'))
}

// appendAlertTable appends the alerts page's table of alerts, whose
// header row opens with the given time cells, or "none" when there are
// no alerts. A resolved alert's row shows its resolution time too.
func appendAlertTable(b []byte, timeCells string, alerts []alert.Alert, resolved bool) []byte {
	if len(alerts) == 0 {
		return append(b, `<p class="meta">none</p>`...)
	}
	b = append(b, "<table><tr>"...)
	b = append(b, timeCells...)
	b = append(b, "<th>Severity</th><th>Kind</th><th>Node</th><th>Message</th></tr>\n"...)
	for i := range alerts {
		a := &alerts[i]
		b = append(b, "<tr><td>"...)
		b = appendFloat(b, a.FiredAt, 0)
		if resolved {
			b = append(b, "s</td><td>"...)
			b = appendFloat(b, a.ResolvedAt, 0)
		}
		b = append(b, "s</td><td>"...)
		b = appendText(b, a.Severity.String())
		b = append(b, "</td><td>"...)
		b = appendText(b, string(a.Kind))
		b = append(b, "</td><td>"...)
		b = a.Node.Append(b)
		b = append(b, "</td><td>"...)
		b = appendText(b, a.Message)
		b = append(b, "</td></tr>"...)
	}
	return append(b, "\n</table>"...)
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
	buf, b := s.page(32 + g.renderBytes())
	b = append(b, "\n<h2>Topology</h2>\n"...)
	b = g.Render(b)
	writePage(w, buf, append(b, '\n'))
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
	w.Write(chart.Render()) //nolint:errcheck // a failed write has no one to report to
}

// The page skeleton every HTML page shares: the head, holding the
// title twice (New appends it escaped between these parts), a body
// each handler appends, and the foot.
const (
	headTitle = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>`
	headH1 = `</title>
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
<h1>`
	headNav = `</h1>
<nav><a href="/">Overview</a><a href="/traffic">Traffic</a><a href="/topology">Topology</a><a href="/alerts">Alerts</a><a href="/health">Health</a></nav>
`
	pageFoot = `</body></html>`
)

// Responses are rendered into pooled buffers: a ResponseWriter keeps
// nothing of a Write once it returns, so the buffer is reused as soon as
// the response is written. A buffer that grew past maxPooled (the
// topology page of a large mesh) is dropped rather than kept: what the
// pool holds at a collection stays live until the next one.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

const maxPooled = 64 << 10

// getBuffer returns an empty pooled buffer with room for n bytes.
func getBuffer(n int) (*[]byte, []byte) {
	buf := buffers.Get().(*[]byte)
	return buf, slices.Grow((*buf)[:0], n)
}

// Content-Type values, shared by every response: a ResponseWriter copies
// its header values when it writes the status, and nothing modifies them.
var (
	htmlType = []string{"text/html; charset=utf-8"}
	jsonType = []string{"application/json"}
)

// writeBuffer writes b, which was rendered in the pooled buffer buf, in
// one call and hands buf back to the pool.
func writeBuffer(w http.ResponseWriter, contentType []string, buf *[]byte, b []byte) {
	w.Header()["Content-Type"] = contentType
	w.Write(b) //nolint:errcheck // a failed write has no one to report to
	if cap(b) > maxPooled {
		b = nil
	}
	*buf = b[:0]
	buffers.Put(buf)
}

// page starts a page in a pooled buffer: the shared head, with room for
// n bytes of body.
func (s *Server) page(n int) (*[]byte, []byte) {
	buf, b := getBuffer(len(s.head) + n + len(pageFoot))
	return buf, append(b, s.head...)
}

// writePage ends b with the shared foot and writes it in one call.
func writePage(w http.ResponseWriter, buf *[]byte, b []byte) {
	writeBuffer(w, htmlType, buf, append(b, pageFoot...))
}
