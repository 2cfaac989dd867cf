package dashboard

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// svgLineChart renders one or more series as an SVG line chart. It is a
// dependency-free stand-in for the Grafana panels the paper's server
// uses.
type svgLineChart struct {
	Title  string
	Width  int
	Height int
	Series []chartSeries
}

type chartSeries struct {
	Label  string
	Color  string
	Points []tsdb.Point
}

// seriesPalette cycles across series.
var seriesPalette = []string{
	"#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c",
	"#0891b2", "#ca8a04", "#db2777", "#4b5563", "#65a30d",
}

// appendAxisValue appends an axis label: whole numbers from 1000 up,
// one decimal from 10, two below (and for NaN).
func appendAxisValue(b []byte, v float64) []byte {
	switch {
	case math.Abs(v) >= 1000:
		return appendFixed(b, v, 0)
	case math.Abs(v) >= 10:
		return appendFixed(b, v, 1)
	default:
		return appendFixed(b, v, 2)
	}
}

// Render produces the SVG document.
func (c svgLineChart) Render() []byte {
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
	b := make([]byte, 0, 1024+14*total)
	b = appendSVGHead(b, c.Width, c.Height)
	b = appendInt(b, `<text x="`, padL)
	b = append(b, `" y="18" font-family="sans-serif" font-size="13" fill="#111">`...)
	b = append(b, xmlEscape(c.Title)...)
	b = append(b, `</text>`...)

	if total == 0 {
		b = appendInt(b, `<text x="`, c.Width/2-24)
		b = appendInt(b, `" y="`, c.Height/2)
		return append(b, `" font-family="sans-serif" font-size="12" fill="#666">no data</text></svg>`...)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	xpos := func(ts float64) float64 { return float64(padL) + (ts-minX)/(maxX-minX)*plotW }
	ypos := func(v float64) float64 { return float64(padT) + (1-(v-minY)/(maxY-minY))*plotH }

	// Axes and labels.
	b = appendLine(b, padL, padT, padL, c.Height-padB)
	b = appendLine(b, padL, c.Height-padB, c.Width-padR, c.Height-padB)
	const axisFont = `" font-family="sans-serif" font-size="10" fill="#555"`
	b = appendInt(b, `<text x="4" y="`, padT+4)
	b = append(b, axisFont+`>`...)
	b = appendAxisValue(b, maxY)
	b = appendInt(b, `</text><text x="4" y="`, c.Height-padB)
	b = append(b, axisFont+`>`...)
	b = appendAxisValue(b, minY)
	b = appendInt(b, `</text><text x="`, padL)
	b = appendInt(b, `" y="`, c.Height-8)
	b = append(b, axisFont+`>t=`...)
	b = appendAxisValue(b, minX)
	b = appendInt(b, `s</text><text x="`, c.Width-padR)
	b = appendInt(b, `" y="`, c.Height-8)
	b = append(b, axisFont+` text-anchor="end">t=`...)
	b = appendAxisValue(b, maxX)
	b = append(b, `s</text>`...)

	for i, s := range c.Series {
		color := s.Color
		if color == "" {
			color = seriesPalette[i%len(seriesPalette)]
		}
		if len(s.Points) == 1 {
			p := s.Points[0]
			b = append(b, `<circle cx="`...)
			b = appendFixed(b, xpos(p.TS), 1)
			b = append(b, `" cy="`...)
			b = appendFixed(b, ypos(p.Value), 1)
			b = append(b, `" r="3" fill="`...)
			b = append(b, color...)
			b = append(b, `"/>`...)
		} else {
			b = append(b, `<path d="`...)
			for j, p := range s.Points {
				if j == 0 {
					b = append(b, 'M')
				} else {
					b = append(b, " L"...)
				}
				b = appendFixed(b, xpos(p.TS), 1)
				b = append(b, ' ')
				b = appendFixed(b, ypos(p.Value), 1)
			}
			b = append(b, `" fill="none" stroke="`...)
			b = append(b, color...)
			b = append(b, `" stroke-width="1.5"/>`...)
		}
		// Legend entry.
		lx := padL + 8 + (i%4)*140
		ly := padT - 8 + (i/4)*12
		b = appendInt(b, `<rect x="`, lx)
		b = appendInt(b, `" y="`, ly-8)
		b = append(b, `" width="8" height="8" fill="`...)
		b = append(b, color...)
		b = appendInt(b, `"/><text x="`, lx+12)
		b = appendInt(b, `" y="`, ly)
		b = append(b, `" font-family="sans-serif" font-size="10" fill="#333">`...)
		b = append(b, xmlEscape(s.Label)...)
		b = append(b, `</text>`...)
	}
	return append(b, `</svg>`...)
}

// topoNode is one vertex of the topology graph, labelled with its ID.
type topoNode struct {
	ID   wire.NodeID
	Down bool
}

// topoEdge is one drawn link, labelled with its mean RSSI in whole dBm.
type topoEdge struct {
	From, To int // indices into the node list
	RSSI     float64
}

// svgTopology renders the inferred mesh graph: nodes on a circle, edges
// as lines. Every in-range edge is drawn, so a caller that wants a
// bidirectional pair as one line passes one edge for it.
type svgTopology struct {
	Title string
	Size  int
	Nodes []topoNode
	Edges []topoEdge
}

// renderBytes bounds the size of the graph Render draws.
func (g svgTopology) renderBytes() int { return 512 + 190*len(g.Nodes) + 200*len(g.Edges) }

// Render lays the nodes on a circle and appends the SVG to b.
func (g svgTopology) Render(b []byte) []byte {
	if g.Size <= 0 {
		g.Size = 480
	}
	cx, cy := float64(g.Size)/2, float64(g.Size)/2+10
	r := float64(g.Size)/2 - 60

	// Each node's position is formatted once: node i's x is
	// num[at[2i]:at[2i+1]] and its y num[at[2i+1]:at[2i+2]], reused at
	// every edge end.
	n := len(g.Nodes)
	pos := make([][2]float64, n)
	num := make([]byte, 0, 12*n)
	at := make([]int, 1, 2*n+1)
	for i := range g.Nodes {
		theta := 2*math.Pi*float64(i)/float64(max(n, 1)) - math.Pi/2
		pos[i] = [2]float64{cx + r*math.Cos(theta), cy + r*math.Sin(theta)}
		num = appendFixed(num, pos[i][0], 1)
		at = append(at, len(num))
		num = appendFixed(num, pos[i][1], 1)
		at = append(at, len(num))
	}
	x := func(i int) []byte { return num[at[2*i]:at[2*i+1]] }
	y := func(i int) []byte { return num[at[2*i+1]:at[2*i+2]] }

	b = slices.Grow(b, g.renderBytes())
	b = appendSVGHead(b, g.Size, g.Size)
	b = append(b, `<text x="16" y="22" font-family="sans-serif" font-size="13" fill="#111">`...)
	b = append(b, xmlEscape(g.Title)...)
	b = append(b, `</text>`...)
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			continue
		}
		b = append(b, `<line x1="`...)
		b = append(b, x(e.From)...)
		b = append(b, `" y1="`...)
		b = append(b, y(e.From)...)
		b = append(b, `" x2="`...)
		b = append(b, x(e.To)...)
		b = append(b, `" y2="`...)
		b = append(b, y(e.To)...)
		b = append(b, `" stroke="#94a3b8" stroke-width="1.5"/><text x="`...)
		b = appendFixed(b, (pos[e.From][0]+pos[e.To][0])/2, 1)
		b = append(b, `" y="`...)
		b = appendFixed(b, (pos[e.From][1]+pos[e.To][1])/2, 1)
		b = append(b, `" font-family="sans-serif" font-size="9" fill="#64748b">`...)
		b = appendFixed(b, e.RSSI, 0)
		b = append(b, `dBm</text>`...)
	}
	for i, nd := range g.Nodes {
		fill := "#2563eb"
		if nd.Down {
			fill = "#dc2626"
		}
		b = append(b, `<circle cx="`...)
		b = append(b, x(i)...)
		b = append(b, `" cy="`...)
		b = append(b, y(i)...)
		b = append(b, `" r="14" fill="`...)
		b = append(b, fill...)
		b = append(b, `"/><text x="`...)
		b = append(b, x(i)...)
		b = append(b, `" y="`...)
		b = appendFixed(b, pos[i][1]+3, 1)
		b = append(b, `" font-family="sans-serif" font-size="9" fill="#fff" text-anchor="middle">`...)
		b = nd.ID.Append(b)
		b = append(b, `</text>`...)
	}
	return append(b, `</svg>`...)
}

// appendSVGHead appends the document's opening tag and white background.
func appendSVGHead(b []byte, w, h int) []byte {
	b = appendInt(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`, w)
	b = appendInt(b, `" height="`, h)
	b = appendInt(b, `" viewBox="0 0 `, w)
	b = appendInt(b, ` `, h)
	b = appendInt(b, `"><rect width="`, w)
	b = appendInt(b, `" height="`, h)
	return append(b, `" fill="#ffffff"/>`...)
}

// appendLine appends a grey axis line.
func appendLine(b []byte, x1, y1, x2, y2 int) []byte {
	b = appendInt(b, `<line x1="`, x1)
	b = appendInt(b, `" y1="`, y1)
	b = appendInt(b, `" x2="`, x2)
	b = appendInt(b, `" y2="`, y2)
	return append(b, `" stroke="#999"/>`...)
}

// appendInt appends s, then v in decimal.
func appendInt(b []byte, s string, v int) []byte {
	return strconv.AppendInt(append(b, s...), int64(v), 10)
}

var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func xmlEscape(s string) string { return xmlEscaper.Replace(s) }
