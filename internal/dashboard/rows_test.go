package dashboard

import (
	"fmt"
	"html/template"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/analysis"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/wire"
)

// The html/template {{range}} bodies the row appenders replaced, and
// the complete page set they lived in, kept as the parity reference.
// refChangeRows is the node page's route-change table written as the
// template it would have been, and the page set holds it too.
const (
	refChangeRows = `{{range $i, $c := .}}{{if lt $i 16}}<tr><td>{{printf "%.0fs" .TS}}</td><td>{{.Dst}}</td>` +
		`<td>{{if .OldMetric}}{{.OldNextHop}}{{else}}—{{end}} → {{if .NewMetric}}{{.NewNextHop}}{{else}}—{{end}}</td>` +
		`<td>{{if .OldMetric}}{{.OldMetric}}{{else}}—{{end}} → {{if .NewMetric}}{{.NewMetric}}{{else}}—{{end}}</td></tr>
{{end}}{{end}}`
	refNodeRows = `{{range .Nodes}}<tr>
<td><a href="/node/{{.ID}}">{{.ID}}</a></td>
<td>{{if .Up}}<span class="up">up</span>{{else}}<span class="down">down</span>{{end}}</td>
<td>{{.LastBeat}}</td><td>{{.Uptime}}</td><td>{{.Routes}}</td><td>{{.QueueLen}}</td>
<td>{{.DutyCycle}}</td><td>{{if .BatteryLow}}<span class="down">{{.Battery}}</span>{{else}}{{.Battery}}{{end}}</td><td>{{.BatchesOK}}</td><td>{{.BatchesBad}}</td><td>{{.Firmware}}</td>
</tr>{{end}}`
	refPacketRows = `{{range .Packets}}<tr>
<td>{{printf "%.1f" .TS}}</td><td>{{.Node}}</td><td>{{.Event}}</td><td>{{.Type}}</td>
<td>{{.Src}}</td><td>{{.Dst}}</td><td>{{.Via}}</td><td>{{.Seq}}</td><td>{{.TTL}}</td><td>{{.Size}}</td>
<td>{{if .RSSIdBm}}{{printf "%.0f" .RSSIdBm}}{{end}}</td>
<td>{{if .SNRdB}}{{printf "%.1f" .SNRdB}}{{end}}</td>
<td>{{.Reason}}</td>
</tr>{{end}}`
	parentPageTemplates = `
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
)

// refNodeRow is an overview row in the string form the template took.
type refNodeRow struct {
	ID         string
	Up         bool
	LastBeat   string
	Uptime     string
	Firmware   string
	Routes     int
	QueueLen   int
	DutyCycle  string
	Battery    string
	BatteryLow bool
	BatchesOK  uint64
	BatchesBad uint64
}

// refNodeRowsFor is the overview's former row conversion.
func refNodeRowsFor(nodes []collector.NodeInfo, now, downAfterS float64) []refNodeRow {
	var rows []refNodeRow
	for _, n := range nodes {
		row := refNodeRow{
			ID:         n.ID.String(),
			Up:         now-n.LastBeatTS <= downAfterS,
			LastBeat:   fmt.Sprintf("%.0fs", n.LastBeatTS),
			Uptime:     fmt.Sprintf("%.0fs", n.UptimeS),
			Firmware:   n.Firmware,
			BatchesOK:  n.BatchesOK,
			BatchesBad: n.BatchesLost,
		}
		if n.LastStats != nil {
			row.Routes = n.LastStats.RouteCount
			row.QueueLen = n.LastStats.QueueLen
			row.DutyCycle = fmt.Sprintf("%.3f%%", 100*n.LastStats.DutyCycleUsed)
			if n.LastStats.Energy {
				row.Battery = fmt.Sprintf("%.0f%% (%.2f V)",
					100*n.LastStats.BatteryFrac, n.LastStats.BatteryV)
				row.BatteryLow = n.LastStats.BatteryFrac <= 0.2
			}
		}
		if row.Battery == "" {
			row.Battery = "—"
		}
		rows = append(rows, row)
	}
	return rows
}

// refRowTemplates executes the former {{range}} bodies on their own.
var refRowTemplates = template.Must(template.New("rows").Parse(
	`{{define "nodes"}}` + refNodeRows + `{{end}}{{define "packets"}}` + refPacketRows + `{{end}}` +
		`{{define "changes"}}` + refChangeRows + `{{end}}`))

func execRef(t testing.TB, name string, data any) string {
	t.Helper()
	var sb strings.Builder
	if err := refRowTemplates.ExecuteTemplate(&sb, name, data); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// hostileString draws text the escaper must rewrite or pass through:
// markup and entity characters, NUL, invalid UTF-8, U+2028, the
// replacement character and noncharacters.
func hostileString(rng *rand.Rand) string {
	pieces := []string{"", "fw1", "no-route", "<>&'\"+", "\x00", "\xff", "\xe2\x80", "\u2028", "é", "\ufffd", "\ufdd0", "a+b", " ", "&amp;"}
	var sb strings.Builder
	for k := rng.Intn(4); k > 0; k-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	if rng.Intn(8) == 0 {
		raw := make([]byte, rng.Intn(6))
		rng.Read(raw)
		sb.Write(raw)
	}
	return sb.String()
}

// specialFloat draws the values whose formatting or {{if}} truthiness
// differs: NaN, ±Inf, −0 and 0, rounding ties, tiny and huge magnitudes.
func specialFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	case 5:
		return 0.2
	case 6:
		return []float64{0.5, 2.5, -1.5, 0.0005, 0.125}[rng.Intn(5)]
	case 7:
		return rng.NormFloat64() * 1e-6
	case 8:
		return rng.NormFloat64() * 1e22
	default:
		return rng.NormFloat64() * 200
	}
}

func randomNodeInfo(rng *rand.Rand) collector.NodeInfo {
	n := collector.NodeInfo{
		ID:          wire.NodeID(rng.Intn(1 << 16)),
		LastBeatTS:  specialFloat(rng),
		UptimeS:     specialFloat(rng),
		Firmware:    hostileString(rng),
		BatchesOK:   rng.Uint64() >> uint(rng.Intn(64)),
		BatchesLost: uint64(rng.Intn(1000)),
	}
	if rng.Intn(4) > 0 {
		n.LastStats = &wire.NodeStats{
			RouteCount:    rng.Intn(400) - 20,
			QueueLen:      rng.Intn(60) - 5,
			DutyCycleUsed: specialFloat(rng),
			Energy:        rng.Intn(2) == 0,
			BatteryFrac:   specialFloat(rng),
			BatteryV:      specialFloat(rng),
		}
	}
	return n
}

func randomPacket(rng *rand.Rand) wire.PacketRecord {
	return wire.PacketRecord{
		TS:      specialFloat(rng),
		Node:    wire.NodeID(rng.Intn(1 << 16)),
		Event:   wire.Event(hostileString(rng)),
		Type:    hostileString(rng),
		Src:     wire.NodeID(rng.Intn(1 << 16)),
		Dst:     wire.NodeID(rng.Intn(1 << 16)),
		Via:     wire.NodeID(rng.Intn(1 << 16)),
		Seq:     uint16(rng.Intn(1 << 16)),
		TTL:     uint8(rng.Intn(256)),
		Size:    rng.Intn(600) - 50,
		RSSIdBm: specialFloat(rng),
		SNRdB:   specialFloat(rng),
		Reason:  hostileString(rng),
	}
}

// TestOverviewRowsMatchTemplate: over 2 000 random row sets — node IDs
// across the full 16-bit space, hostile firmware strings, special
// floats everywhere, stats absent or present, battery on or off — the
// appender writes exactly what the former {{range .Nodes}} body did.
func TestOverviewRowsMatchTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		nodes := make([]collector.NodeInfo, rng.Intn(5))
		for k := range nodes {
			nodes[k] = randomNodeInfo(rng)
		}
		now, down := specialFloat(rng), rng.Float64()*200
		want := execRef(t, "nodes", struct{ Nodes []refNodeRow }{refNodeRowsFor(nodes, now, down)})
		if got := string(appendOverviewRows(nil, nodes, now, down)); got != want {
			t.Fatalf("set %d: rows differ\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestTrafficRowsMatchTemplate: the same for the traffic page's packet
// rows, including the {{if}} truthiness of NaN, ±Inf, −0 and 0 radio
// measurements.
func TestTrafficRowsMatchTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		pkts := make([]wire.PacketRecord, rng.Intn(5))
		for k := range pkts {
			pkts[k] = randomPacket(rng)
		}
		want := execRef(t, "packets", struct{ Packets []wire.PacketRecord }{pkts})
		if got := string(appendTrafficRows(nil, pkts)); got != want {
			t.Fatalf("set %d: rows differ\n got %q\nwant %q", i, got, want)
		}
	}
}

// FuzzOverviewRows checks one overview row built from arbitrary inputs
// against the former template.
func FuzzOverviewRows(f *testing.F) {
	f.Add(uint16(1), "fw1", 100.0, 95.0, 0.002, 0.74, 3.89, 100.0, 1, uint64(7), uint8(3))
	f.Add(uint16(0xFFFF), "<b>&'\"+\x00\xff ", math.NaN(), math.Inf(1), math.Inf(-1), 0.2, -0.0, 0.0, -3, uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, id uint16, firmware string, lastBeat, uptime, duty, frac, volt, now float64, routes int, ok uint64, flags uint8) {
		n := collector.NodeInfo{
			ID: wire.NodeID(id), LastBeatTS: lastBeat, UptimeS: uptime, Firmware: firmware,
			BatchesOK: ok, BatchesLost: uint64(flags),
		}
		if flags&1 != 0 {
			n.LastStats = &wire.NodeStats{RouteCount: routes, QueueLen: routes / 3, DutyCycleUsed: duty,
				Energy: flags&2 != 0, BatteryFrac: frac, BatteryV: volt}
		}
		nodes := []collector.NodeInfo{n}
		want := execRef(t, "nodes", struct{ Nodes []refNodeRow }{refNodeRowsFor(nodes, now, 90)})
		if got := string(appendOverviewRows(nil, nodes, now, 90)); got != want {
			t.Fatalf("row differs\n got %q\nwant %q", got, want)
		}
	})
}

// refServer renders every panel through the parent page set: the
// overview and traffic pages with their former data, the topology and
// SVG charts through the parent handler and renderers, the rest through
// the unchanged handlers.
func refServer(s *Server) http.Handler {
	s.tmpl = template.Must(template.New("dash").Parse(parentPageTemplates))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
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
		s.render(w, "overview", data)
	})
	mux.HandleFunc("GET /traffic", func(w http.ResponseWriter, _ *http.Request) {
		s.render(w, "traffic", struct {
			Title   string
			Packets []wire.PacketRecord
		}{s.cfg.Title, s.coll.Recent(100)})
	})
	mux.HandleFunc("GET /topology", refHandleTopology(s))
	mux.HandleFunc("GET /chart/{metric}", refHandleChart(s))
	mux.Handle("/", s.Handler())
	return mux
}

// TestRouteChangeRowsMatchTemplate: over 2 000 random histories of up
// to 40 changes — added and removed routes, extreme node IDs and
// metrics, special-float timestamps — the route-change appender writes
// what its template form renders, the newest 16 rows.
func TestRouteChangeRowsMatchTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	id := func() wire.NodeID { return wire.NodeID(rng.Intn(1 << 16)) }
	for i := 0; i < 2000; i++ {
		hist := make([]collector.RouteChange, rng.Intn(41))
		for k := range hist {
			c := collector.RouteChange{TS: specialFloat(rng), Dst: id(), OldNextHop: id(), NewNextHop: id(),
				OldMetric: uint8(rng.Intn(256)), NewMetric: uint8(rng.Intn(256))}
			switch rng.Intn(4) {
			case 0:
				c.OldNextHop, c.OldMetric = 0, 0
			case 1:
				c.NewNextHop, c.NewMetric = 0, 0
			}
			hist[k] = c
		}
		if got, want := string(appendRouteChangeRows(nil, hist)), execRef(t, "changes", hist); got != want {
			t.Fatalf("history %+v\n got %q\nwant %q", hist, got, want)
		}
	}
}

// TestPagesMatchParentTemplates renders every HTML panel for seeded
// collectors — one with hostile firmware, packet types and drop
// reasons and a node whose routes changed, one with battery-powered
// nodes — and requires the bytes the parent page set, with the node
// page's route-change table added, produced.
func TestPagesMatchParentTemplates(t *testing.T) {
	hostile := wire.Batch{
		Node: 3, SeqNo: 1, SentAt: 100,
		Heartbeats: []wire.Heartbeat{{TS: 99, Node: 3, UptimeS: 99, Firmware: "<b>&'\"+\u2028\x00"}},
		Packets: []wire.PacketRecord{{TS: 98.25, Node: 3, Event: wire.EventDrop, Type: "DA<TA>", Src: 3, Dst: 0xABCD,
			Via: 1, Seq: 65535, TTL: 255, Size: 30, Reason: "queue & \"full\" + 'x'"}},
	}
	rerouted := wire.Batch{Node: 1, SeqNo: 2, SentAt: 200, Routes: []wire.RouteSnapshot{{TS: 190, Node: 1,
		Routes: []wire.RouteEntry{{Dst: 3, NextHop: 2, Metric: 2, AgeS: 5}, {Dst: 0xFFFE, NextHop: 3, Metric: 255}}}}}
	seeds := map[string]func(*testing.T) *collector.Collector{
		"seeded": func(t *testing.T) *collector.Collector {
			c := seedCollector(t)
			for _, b := range []wire.Batch{hostile, rerouted} {
				if err := c.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			return c
		},
		"energy": seedEnergyCollector,
	}
	routes := []string{"/", "/traffic", "/node/N0001", "/node/N0002", "/node/N0003", "/topology", "/alerts",
		"/chart/mesh_packet_rssi.svg", "/chart/node_battery_frac.svg?node=N0001", "/chart/none.svg"}
	for name, seed := range seeds {
		c := seed(t)
		eng := alert.NewEngine(c, alert.Config{})
		eng.Check(c.MaxTS())
		cur := New(c, eng, Config{DisableCache: true})
		ref := New(c, eng, Config{DisableCache: true})
		curH, refH := cur.Handler(), refServer(ref)
		for _, route := range routes {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			curH.ServeHTTP(got, httptest.NewRequest("GET", route, nil))
			refH.ServeHTTP(want, httptest.NewRequest("GET", route, nil))
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("%s %s: page differs from the parent page set (status %d vs %d)\n got %q\nwant %q",
					name, route, got.Code, want.Code, got.Body.String(), want.Body.String())
			}
		}
		cur.Close()
		ref.Close()
	}
}
