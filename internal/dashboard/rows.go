package dashboard

import (
	"math"
	"strconv"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/wire"
)

// Typed row appenders for the overview's node table, the traffic
// page's packet table and the node page's route-change table, and the
// text and number helpers every page is appended with. The first two
// tables have one row per node (per packet) with a dozen cells each; as
// html/template {{range}} bodies, every cell cost a reflective escaper
// call on each render. Here each row is appended from its typed fields
// — node IDs through wire.NodeID.Append, numbers through strconv and
// appendFixed — straight into the page. The output is byte-identical
// to the templates these replaced (rows_test.go keeps them, and the
// template form of the route-change rows, as the parity reference).

// rowBytes sizes a table's row buffer per row: rendered rows run to
// ~250 bytes, so a page's rows append without regrowing.
const rowBytes = 320

// appendText appends s escaped exactly as html/template escapes text
// content. Every replaced character is ASCII and every other byte,
// including invalid UTF-8, passes through, so a byte scan is exact.
func appendText(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var repl string
		switch s[i] {
		case 0:
			repl = "\uFFFD"
		case '"':
			repl = "&#34;"
		case '&':
			repl = "&amp;"
		case '\'':
			repl = "&#39;"
		case '+':
			repl = "&#43;"
		case '<':
			repl = "&lt;"
		case '>':
			repl = "&gt;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, repl...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// appendFloat appends v as fmt's %.<prec>f, escaped as text: the only
// character of that format the escaper rewrites is +Inf's sign.
func appendFloat(b []byte, v float64, prec int) []byte {
	if math.IsInf(v, 1) {
		return append(b, "&#43;Inf"...)
	}
	return appendFixed(b, v, prec)
}

// appendUint appends s, then v in decimal.
func appendUint(b []byte, s string, v uint64) []byte {
	return strconv.AppendUint(append(b, s...), v, 10)
}

// appendOverviewRows appends the overview's node table rows: status
// against now and the display down-after threshold, heartbeat and
// uptime in seconds, the last stats report's routes, queue, duty cycle
// and battery ("—" for mains-powered nodes or none reported), batch
// counters and firmware.
func appendOverviewRows(b []byte, nodes []collector.NodeInfo, now, downAfterS float64) []byte {
	for i := range nodes {
		n := &nodes[i]
		b = append(b, "<tr>\n<td><a href=\"/node/"...)
		b = n.ID.Append(b)
		b = append(b, "\">"...)
		b = n.ID.Append(b)
		b = append(b, "</a></td>\n<td>"...)
		if now-n.LastBeatTS <= downAfterS {
			b = append(b, `<span class="up">up</span>`...)
		} else {
			b = append(b, `<span class="down">down</span>`...)
		}
		b = append(b, "</td>\n<td>"...)
		b = appendFloat(b, n.LastBeatTS, 0)
		b = append(b, "s</td><td>"...)
		b = appendFloat(b, n.UptimeS, 0)
		b = append(b, "s</td><td>"...)
		st := n.LastStats
		routes, queue := 0, 0
		if st != nil {
			routes, queue = st.RouteCount, st.QueueLen
		}
		b = strconv.AppendInt(b, int64(routes), 10)
		b = append(b, "</td><td>"...)
		b = strconv.AppendInt(b, int64(queue), 10)
		b = append(b, "</td>\n<td>"...)
		if st != nil {
			b = appendFloat(b, 100*st.DutyCycleUsed, 3)
			b = append(b, '%')
		}
		b = append(b, "</td><td>"...)
		if st != nil && st.Energy {
			low := st.BatteryFrac <= 0.2
			if low {
				b = append(b, `<span class="down">`...)
			}
			b = appendFloat(b, 100*st.BatteryFrac, 0)
			b = append(b, "% ("...)
			b = appendFloat(b, st.BatteryV, 2)
			b = append(b, " V)"...)
			if low {
				b = append(b, "</span>"...)
			}
		} else {
			b = append(b, "—"...)
		}
		b = append(b, "</td><td>"...)
		b = strconv.AppendUint(b, n.BatchesOK, 10)
		b = append(b, "</td><td>"...)
		b = strconv.AppendUint(b, n.BatchesLost, 10)
		b = append(b, "</td><td>"...)
		b = appendText(b, n.Firmware)
		b = append(b, "</td>\n</tr>"...)
	}
	return b
}

// appendTrafficRows appends the traffic page's packet table rows; the
// radio measurements stay blank when zero (tx and drop events).
func appendTrafficRows(b []byte, pkts []wire.PacketRecord) []byte {
	for i := range pkts {
		p := &pkts[i]
		b = append(b, "<tr>\n<td>"...)
		b = appendFloat(b, p.TS, 1)
		b = append(b, "</td><td>"...)
		b = p.Node.Append(b)
		b = append(b, "</td><td>"...)
		b = appendText(b, string(p.Event))
		b = append(b, "</td><td>"...)
		b = appendText(b, p.Type)
		b = append(b, "</td>\n<td>"...)
		b = p.Src.Append(b)
		b = append(b, "</td><td>"...)
		b = p.Dst.Append(b)
		b = append(b, "</td><td>"...)
		b = p.Via.Append(b)
		b = append(b, "</td><td>"...)
		b = strconv.AppendUint(b, uint64(p.Seq), 10)
		b = append(b, "</td><td>"...)
		b = strconv.AppendUint(b, uint64(p.TTL), 10)
		b = append(b, "</td><td>"...)
		b = strconv.AppendInt(b, int64(p.Size), 10)
		b = append(b, "</td>\n<td>"...)
		if p.RSSIdBm != 0 {
			b = appendFloat(b, p.RSSIdBm, 0)
		}
		b = append(b, "</td>\n<td>"...)
		if p.SNRdB != 0 {
			b = appendFloat(b, p.SNRdB, 1)
		}
		b = append(b, "</td>\n<td>"...)
		b = appendText(b, p.Reason)
		b = append(b, "</td>\n</tr>"...)
	}
	return b
}

// routeChangeRows bounds the node page's route-change table.
const routeChangeRows = 16

// appendRouteChangeRows appends the node page's route-change rows for
// the newest routeChangeRows entries of a newest-first history: time,
// destination, next hop and metric as old → new, "—" standing for no
// route.
func appendRouteChangeRows(b []byte, hist []collector.RouteChange) []byte {
	for _, c := range hist[:min(len(hist), routeChangeRows)] {
		b = append(b, "<tr><td>"...)
		b = appendFloat(b, c.TS, 0)
		b = append(b, "s</td><td>"...)
		b = c.Dst.Append(b)
		b = append(b, "</td><td>"...)
		b = appendHop(b, c.OldNextHop, c.OldMetric)
		b = append(b, " → "...)
		b = appendHop(b, c.NewNextHop, c.NewMetric)
		b = append(b, "</td><td>"...)
		b = appendMetric(b, c.OldMetric)
		b = append(b, " → "...)
		b = appendMetric(b, c.NewMetric)
		b = append(b, "</td></tr>\n"...)
	}
	return b
}

// appendHop appends a route's next hop, or "—" for no route.
func appendHop(b []byte, hop wire.NodeID, metric uint8) []byte {
	if metric == 0 {
		return append(b, "—"...)
	}
	return hop.Append(b)
}

// appendMetric appends a route's metric, or "—" for no route.
func appendMetric(b []byte, metric uint8) []byte {
	if metric == 0 {
		return append(b, "—"...)
	}
	return strconv.AppendUint(b, uint64(metric), 10)
}
