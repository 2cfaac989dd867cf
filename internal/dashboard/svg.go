package dashboard

import (
	"fmt"
	"math"
	"strings"

	"lorameshmon/internal/tsdb"
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

func fmtFloat(v float64) string {
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

// Render produces the SVG document.
func (c svgLineChart) Render() string {
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

	// Axes and labels.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		padL, padT, padL, c.Height-padB)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		padL, c.Height-padB, c.Width-padR, c.Height-padB)
	fmt.Fprintf(&sb, `<text x="4" y="%d" font-family="sans-serif" font-size="10" fill="#555">%s</text>`,
		padT+4, fmtFloat(maxY))
	fmt.Fprintf(&sb, `<text x="4" y="%d" font-family="sans-serif" font-size="10" fill="#555">%s</text>`,
		c.Height-padB, fmtFloat(minY))
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#555">t=%ss</text>`,
		padL, c.Height-8, fmtFloat(minX))
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#555" text-anchor="end">t=%ss</text>`,
		c.Width-padR, c.Height-8, fmtFloat(maxX))

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
		// Legend entry.
		lx := padL + 8 + (i%4)*140
		ly := padT - 8 + (i/4)*12
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="8" height="8" fill="%s"/>`, lx, ly-8, color)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="#333">%s</text>`,
			lx+12, ly, xmlEscape(s.Label))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// topoNode is one vertex of the topology graph.
type topoNode struct {
	Label string
	X, Y  float64
	Down  bool
}

// topoEdge is one directed link.
type topoEdge struct {
	From, To int // indices into the node list
	Label    string
}

// svgTopology renders the inferred mesh graph: nodes on a circle, edges
// as lines (bidirectional pairs render as a single line).
type svgTopology struct {
	Title string
	Size  int
	Nodes []topoNode
	Edges []topoEdge
}

// Render lays the nodes on a circle and draws the SVG.
func (g svgTopology) Render() string {
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

	// Deduplicate bidirectional pairs.
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

var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func xmlEscape(s string) string { return xmlEscaper.Replace(s) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
