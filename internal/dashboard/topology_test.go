package dashboard

import (
	"fmt"
	"html/template"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"lorameshmon/internal/analysis"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// The fmt-based topology handler and SVG renderers that the one-pass
// read and the byte appenders replaced, kept as the parity reference.

type refTopoNode struct {
	Label string
	X, Y  float64
	Down  bool
}

type refTopoEdge struct {
	From, To int
	Label    string
}

type refSVGTopology struct {
	Title string
	Size  int
	Nodes []refTopoNode
	Edges []refTopoEdge
}

func (g refSVGTopology) Render() string {
	if g.Size <= 0 {
		g.Size = 480
	}
	cx, cy := float64(g.Size)/2, float64(g.Size)/2+10
	r := float64(g.Size)/2 - 60

	n := len(g.Nodes)
	pos := make([][2]float64, n)
	for i := range g.Nodes {
		theta := 2*math.Pi*float64(i)/float64(max(n, 1)) - math.Pi/2
		pos[i] = [2]float64{cx + r*math.Cos(theta), cy + r*math.Sin(theta)}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		g.Size, g.Size, g.Size, g.Size)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="#ffffff"/>`, g.Size, g.Size)
	fmt.Fprintf(&sb, `<text x="16" y="22" font-family="sans-serif" font-size="13" fill="#111">%s</text>`,
		xmlEscape(g.Title))

	type pair struct{ a, b int }
	drawn := make(map[pair]bool)
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			continue
		}
		k := pair{min(e.From, e.To), max(e.From, e.To)}
		if drawn[k] {
			continue
		}
		drawn[k] = true
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#94a3b8" stroke-width="1.5"/>`,
			pos[e.From][0], pos[e.From][1], pos[e.To][0], pos[e.To][1])
		if e.Label != "" {
			mx, my := (pos[e.From][0]+pos[e.To][0])/2, (pos[e.From][1]+pos[e.To][1])/2
			fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="9" fill="#64748b">%s</text>`,
				mx, my, xmlEscape(e.Label))
		}
	}
	for i, nd := range g.Nodes {
		fill := "#2563eb"
		if nd.Down {
			fill = "#dc2626"
		}
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="14" fill="%s"/>`, pos[i][0], pos[i][1], fill)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="9" fill="#fff" text-anchor="middle">%s</text>`,
			pos[i][0], pos[i][1]+3, xmlEscape(nd.Label))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

func refHandleTopology(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		topo := analysis.InferTopology(s.coll, 0, 1)
		nodes := topo.Nodes()
		seen := make(map[wire.NodeID]bool, len(nodes))
		for _, id := range nodes {
			seen[id] = true
		}
		for _, info := range s.coll.Nodes() {
			if !seen[info.ID] {
				nodes = append(nodes, info.ID)
			}
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

		now := s.coll.MaxTS()
		idx := make(map[wire.NodeID]int, len(nodes))
		g := refSVGTopology{Title: "Inferred topology (from HELLO receptions)", Size: 520}
		for i, id := range nodes {
			idx[id] = i
			down := false
			if info, ok := s.coll.Node(id); ok {
				down = now-info.LastBeatTS > s.cfg.DownAfterS
			}
			g.Nodes = append(g.Nodes, refTopoNode{Label: id.String(), Down: down})
		}
		for _, l := range analysis.LinkMatrix(s.coll, s.cfg.SF, 0) {
			g.Edges = append(g.Edges, refTopoEdge{
				From:  idx[l.Tx],
				To:    idx[l.Rx],
				Label: fmt.Sprintf("%.0fdBm", l.MeanRSSI),
			})
		}
		refRender(w, "topology", struct {
			Title string
			SVG   template.HTML
		}{s.cfg.Title, template.HTML(g.Render())})
	}
}

func refFmtFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

type refLineChart svgLineChart

func (c refLineChart) Render() string {
	if c.Width <= 0 {
		c.Width = 640
	}
	if c.Height <= 0 {
		c.Height = 240
	}
	const padL, padR, padT, padB = 56, 16, 28, 32
	plotW := float64(c.Width - padL - padR)
	plotH := float64(c.Height - padT - padB)

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range c.Series {
		for _, p := range s.Points {
			total++
			minX, maxX = math.Min(minX, p.TS), math.Max(maxX, p.TS)
			minY, maxY = math.Min(minY, p.Value), math.Max(maxY, p.Value)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		c.Width, c.Height, c.Width, c.Height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="#ffffff"/>`, c.Width, c.Height)
	fmt.Fprintf(&sb, `<text x="%d" y="18" font-family="sans-serif" font-size="13" fill="#111">%s</text>`,
		padL, xmlEscape(c.Title))

	if total == 0 {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" fill="#666">no data</text>`,
			c.Width/2-24, c.Height/2)
		sb.WriteString(`</svg>`)
		return sb.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	xpos := func(ts float64) float64 { return float64(padL) + (ts-minX)/(maxX-minX)*plotW }
	ypos := func(v float64) float64 { return float64(padT) + (1-(v-minY)/(maxY-minY))*plotH }

	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		padL, padT, padL, c.Height-padB)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		padL, c.Height-padB, c.Width-padR, c.Height-padB)
	fmt.Fprintf(&sb, `<text x="4" y="%d" font-family="sans-serif" font-size="10" fill="#555">%s</text>`,
		padT+4, refFmtFloat(maxY))
	fmt.Fprintf(&sb, `<text x="4" y="%d" font-family="sans-serif" font-size="10" fill="#555">%s</text>`,
		c.Height-padB, refFmtFloat(minY))
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#555">t=%ss</text>`,
		padL, c.Height-8, refFmtFloat(minX))
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#555" text-anchor="end">t=%ss</text>`,
		c.Width-padR, c.Height-8, refFmtFloat(maxX))

	for i, s := range c.Series {
		color := s.Color
		if color == "" {
			color = seriesPalette[i%len(seriesPalette)]
		}
		if len(s.Points) == 1 {
			p := s.Points[0]
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`, xpos(p.TS), ypos(p.Value), color)
		} else {
			var path strings.Builder
			for j, p := range s.Points {
				cmd := "L"
				if j == 0 {
					cmd = "M"
				}
				fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xpos(p.TS), ypos(p.Value))
			}
			fmt.Fprintf(&sb, `<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
				strings.TrimSpace(path.String()), color)
		}
		lx := padL + 8 + (i%4)*140
		ly := padT - 8 + (i/4)*12
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="8" height="8" fill="%s"/>`, lx, ly-8, color)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#333">%s</text>`,
			lx+12, ly, xmlEscape(s.Label))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// refHandleChart serves /chart/{metric}.svg through the parent line
// chart and every other chart path through the current handler.
func refHandleChart(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("metric")
		if !strings.HasSuffix(name, ".svg") {
			s.handleChart(w, r)
			return
		}
		cq, err := parseChartQuery(r.URL.Query(), strings.TrimSuffix(name, ".svg"), s.coll.MaxTS())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		chart := refLineChart{Title: cq.Metric, Width: cq.Width, Height: 240}
		for _, res := range cq.results(s.coll.DB()) {
			chart.Series = append(chart.Series, chartSeries{Label: res.Labels.String(), Points: res.Points})
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, chart.Render()) //nolint:errcheck
	}
}

// hello is one received single-hop HELLO from tx at rx.
func hello(rx, tx wire.NodeID, ts, rssi float64) wire.PacketRecord {
	return wire.PacketRecord{TS: ts, Node: rx, Event: wire.EventRx, Type: "HELLO", Src: tx,
		Dst: wire.BroadcastID, Via: wire.BroadcastID, TTL: 1, Size: 23, RSSIdBm: rssi, SNRdB: 5, ForUs: true}
}

// ringCollector is the topology read's benchmark shape: n nodes with a
// heartbeat each, every node hearing HELLOs from its ten nearest ring
// neighbours (five either side), so n·10 links in bidirectional pairs.
// Mean RSSIs are drawn from seed and include whole-dBm halves, the
// rounding ties.
func ringCollector(t testing.TB, n int, seed int64) *collector.Collector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	for rx := 1; rx <= n; rx++ {
		ts := float64(1000 + rx)
		b := wire.Batch{Node: wire.NodeID(rx), SeqNo: 1, SentAt: ts,
			Heartbeats: []wire.Heartbeat{{TS: ts, Node: wire.NodeID(rx), UptimeS: ts}}}
		for _, off := range []int{1, 2, 3, 4, 5, n - 1, n - 2, n - 3, n - 4, n - 5} {
			tx := wire.NodeID((rx-1+off)%n + 1)
			rssi := -70 - 50*rng.Float64()
			if rng.Intn(8) == 0 {
				rssi = math.Round(rssi) + 0.5
			}
			b.Packets = append(b.Packets, hello(wire.NodeID(rx), tx, ts-1, rssi))
		}
		if err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestTopologyMatchesParent: /topology is byte-identical to the parent
// handler and renderer on the benchmark shape and on the corner cases
// of the vertex set and the pair folding.
func TestTopologyMatchesParent(t *testing.T) {
	ingest := func(t *testing.T, c *collector.Collector, bs ...wire.Batch) *collector.Collector {
		for _, b := range bs {
			if err := c.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	beat := func(node wire.NodeID, seq uint64, ts float64, pkts ...wire.PacketRecord) wire.Batch {
		return wire.Batch{Node: node, SeqNo: seq, SentAt: ts, Packets: pkts,
			Heartbeats: []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts}}}
	}
	empty := func() *collector.Collector { return collector.New(tsdb.New(), collector.DefaultConfig()) }
	cases := map[string]func(*testing.T) *collector.Collector{
		"ring 300x10": func(t *testing.T) *collector.Collector { return ringCollector(t, 300, 1) },
		"ring 11x10":  func(t *testing.T) *collector.Collector { return ringCollector(t, 11, 2) },
		"empty":       func(*testing.T) *collector.Collector { return empty() },
		"registered, no links": func(t *testing.T) *collector.Collector {
			return ingest(t, empty(), beat(3, 1, 50), beat(1, 1, 60), beat(0xFFFE, 1, 70))
		},
		"unregistered transmitters": func(t *testing.T) *collector.Collector {
			return ingest(t, empty(), beat(5, 1, 100, hello(5, 0x0900, 99, -101.5), hello(5, 2, 98, -80.25),
				hello(5, 0xFFFF, 97, -66)))
		},
		"one-way and two-way pairs": func(t *testing.T) *collector.Collector {
			return ingest(t, empty(),
				beat(1, 1, 100, hello(1, 2, 90, -90), hello(1, 3, 91, -91.5), hello(1, 9, 92, -92.5)),
				beat(2, 1, 100, hello(2, 1, 93, -93.4), hello(2, 4, 94, -94.6)),
				beat(4, 1, 100, hello(4, 3, 95, -0.4)),
				beat(9, 1, 100, hello(9, 1, 96, -119.5), hello(9, 1, 97, -120.5)))
		},
		"down node": func(t *testing.T) *collector.Collector {
			return ingest(t, empty(),
				beat(1, 1, 500, hello(1, 2, 490, -90)),
				beat(2, 1, 10, hello(2, 1, 9, -95)), // silent since 10 s: down at 500
				beat(3, 1, 450))
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			cur, ref := New(c, nil, Config{DisableCache: true}), New(c, nil, Config{DisableCache: true})
			defer cur.Close()
			defer ref.Close()
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			cur.Handler().ServeHTTP(got, httptest.NewRequest("GET", "/topology", nil))
			refServer(ref).ServeHTTP(want, httptest.NewRequest("GET", "/topology", nil))
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("/topology differs from the parent (status %d vs %d)\n got %q\nwant %q",
					got.Code, want.Code, got.Body.String(), want.Body.String())
			}
		})
	}
}

// TestLineChartMatchesParent: the line chart writes what the parent's
// fmt-based renderer wrote, over random series with special floats,
// single points, empty series and hostile labels.
func TestLineChartMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		c := svgLineChart{Title: hostileString(rng), Width: rng.Intn(900) - 50, Height: rng.Intn(400) - 50}
		for s := rng.Intn(6); s > 0; s-- {
			cs := chartSeries{Label: hostileString(rng)}
			if rng.Intn(3) == 0 {
				cs.Color = "#123456"
			}
			ts := specialFloat(rng)
			for p := rng.Intn(4) * rng.Intn(20); p > 0; p-- {
				v := rng.NormFloat64() * 100
				if rng.Intn(10) == 0 {
					v = specialFloat(rng)
				}
				cs.Points = append(cs.Points, tsdb.Point{TS: ts, Value: v})
				ts += rng.Float64() * 60
			}
			c.Series = append(c.Series, cs)
		}
		if got, want := string(c.Render()), refLineChart(c).Render(); got != want {
			t.Fatalf("chart %d differs from the parent\n got %q\nwant %q", i, got, want)
		}
	}
}
