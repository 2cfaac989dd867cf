package dashboard

import (
	"fmt"
	"html/template"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/wire"
)

// The html/template {{range}} bodies the row appenders replaced, kept
// as the parity reference; pages_test.go holds the page set they lived
// in. refChangeRows is the node page's route-change table written as
// the template it would have been, and the page set holds it too.
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
