package dashboard

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

func TestParseChartQuery(t *testing.T) {
	const maxTS = 1000.0
	cases := []struct {
		name    string
		query   string
		metric  string
		wantErr bool
		check   func(t *testing.T, cq chartQuery)
	}{
		{name: "defaults", query: "", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.From != 0 || cq.To != maxTS {
					t.Errorf("range = [%g,%g], want [0,%g]", cq.From, cq.To, maxTS)
				}
				if cq.Width != defaultChartWidth {
					t.Errorf("width = %d", cq.Width)
				}
				if cq.Agg != tsdb.AggAvg {
					t.Errorf("agg = %q", cq.Agg)
				}
				if want := maxTS / defaultChartWidth; math.Abs(cq.Step-want) > 1e-9 {
					t.Errorf("step = %g, want %g", cq.Step, want)
				}
			}},
		{name: "empty metric", query: "", metric: "", wantErr: true},
		{name: "bad node", query: "node=bogus", metric: "m", wantErr: true},
		{name: "node filter", query: "node=N0007", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.Matcher["node"] != "N0007" {
					t.Errorf("matcher = %v", cq.Matcher)
				}
			}},
		{name: "bad from", query: "from=abc", metric: "m", wantErr: true},
		{name: "bad to", query: "to=12x", metric: "m", wantErr: true},
		{name: "nan from", query: "from=NaN", metric: "m", wantErr: true},
		{name: "inf to", query: "to=%2BInf", metric: "m", wantErr: true},
		{name: "to before from", query: "from=500&to=100", metric: "m", wantErr: true},
		{name: "negative from clamps", query: "from=-50&to=100", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.From != 0 {
					t.Errorf("From = %g, want 0", cq.From)
				}
			}},
		{name: "bad width", query: "width=wide", metric: "m", wantErr: true},
		{name: "width clamps low", query: "width=3", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.Width != minChartWidth {
					t.Errorf("Width = %d, want %d", cq.Width, minChartWidth)
				}
			}},
		{name: "width clamps high", query: "width=99999", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.Width != maxChartWidth {
					t.Errorf("Width = %d, want %d", cq.Width, maxChartWidth)
				}
			}},
		{name: "bad step", query: "step=fast", metric: "m", wantErr: true},
		{name: "zero step", query: "step=0", metric: "m", wantErr: true},
		{name: "negative step", query: "step=-1", metric: "m", wantErr: true},
		{name: "explicit step respected", query: "step=10", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.Step != 10 {
					t.Errorf("Step = %g, want 10", cq.Step)
				}
			}},
		{name: "tiny step clamps to bucket cap", query: "step=0.0001", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if want := maxTS / maxChartWidth; cq.Step < want {
					t.Errorf("Step = %g, want >= %g", cq.Step, want)
				}
			}},
		{name: "bad agg", query: "agg=median", metric: "m", wantErr: true},
		{name: "good agg", query: "agg=max", metric: "m",
			check: func(t *testing.T, cq chartQuery) {
				if cq.Agg != tsdb.AggMax {
					t.Errorf("Agg = %q", cq.Agg)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			cq, err := parseChartQuery(q, tc.metric, maxTS)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parse(%q) succeeded, want error", tc.query)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse(%q): %v", tc.query, err)
			}
			if tc.check != nil {
				tc.check(t, cq)
			}
		})
	}
}

// The empty-store fallback: no `to` and MaxTS below `from` must fall
// back to an unbounded raw query rather than an empty ranged one.
func TestParseChartQueryUnboundedFallback(t *testing.T) {
	cq, err := parseChartQuery(url.Values{}, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Step != 0 {
		t.Fatalf("Step = %g, want 0 (raw query)", cq.Step)
	}
	if cq.To != math.MaxFloat64 {
		t.Fatalf("To = %g, want unbounded", cq.To)
	}
}

// FuzzParseChartQuery hammers the parser with arbitrary query strings:
// it must never panic, and every accepted parse must satisfy the
// documented invariants (clamped width, bounded bucket count, ordered
// range). Wired into scripts/ci.sh's fuzz stage.
func FuzzParseChartQuery(f *testing.F) {
	f.Add("node=N0001&from=0&to=100", "mesh_packet_rssi", 100.0)
	f.Add("width=9999&step=0.001&agg=max", "m", 1e6)
	f.Add("from=-5&to=NaN", "m", 0.0)
	f.Add("node=bogus&step=abc", "node_queue_len", 3600.0)
	f.Add("", "", -1.0)
	f.Add("from=1e308&to=1e308&width=64", "m", 1e308)
	f.Fuzz(func(t *testing.T, rawQuery, metric string, maxTS float64) {
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			return
		}
		cq, err := parseChartQuery(q, metric, maxTS)
		if err != nil {
			return
		}
		if cq.From < 0 || cq.To < cq.From {
			t.Fatalf("range invariant broken: [%g,%g] for %q", cq.From, cq.To, rawQuery)
		}
		if cq.Width < minChartWidth || cq.Width > maxChartWidth {
			t.Fatalf("width %d out of bounds for %q", cq.Width, rawQuery)
		}
		if cq.Step < 0 || math.IsNaN(cq.Step) || math.IsInf(cq.Step, 0) {
			t.Fatalf("step %g invalid for %q", cq.Step, rawQuery)
		}
		if cq.Step > 0 {
			if buckets := (cq.To - cq.From) / cq.Step; buckets > maxChartWidth+1 {
				t.Fatalf("%g buckets (> %d) for %q", buckets, maxChartWidth, rawQuery)
			}
		}
		switch cq.Agg {
		case tsdb.AggSum, tsdb.AggAvg, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount, tsdb.AggLast:
		default:
			t.Fatalf("unknown agg %q accepted for %q", cq.Agg, rawQuery)
		}
	})
}

func TestChartJSONEndpoint(t *testing.T) {
	srv := newDash(t)

	code, body := fetch(t, srv.URL+"/chart/mesh_packet_rssi.json?node=N0001")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var out struct {
		Metric string `json:"metric"`
		Step   float64
		Series []struct {
			Labels map[string]string `json:"labels"`
			Points [][2]float64      `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Metric != "mesh_packet_rssi" {
		t.Fatalf("metric = %q", out.Metric)
	}
	if len(out.Series) != 1 || out.Series[0].Labels["node"] != "N0001" {
		t.Fatalf("series = %+v", out.Series)
	}
	if len(out.Series[0].Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range out.Series[0].Points {
		if p[1] > -90 || p[1] < -100 {
			t.Fatalf("rssi %g out of the seeded range", p[1])
		}
	}

	// Scalar pushdown via AggregateRange.
	code, body = fetch(t, srv.URL+"/chart/mesh_packet_rssi.json?reduce=count")
	if code != 200 {
		t.Fatalf("reduce status = %d", code)
	}
	var red struct {
		Reduced *float64 `json:"reduced"`
	}
	if err := json.Unmarshal([]byte(body), &red); err != nil {
		t.Fatal(err)
	}
	if red.Reduced == nil || *red.Reduced != 2 {
		t.Fatalf("reduced = %v, want 2 (two seeded RSSI points)", red.Reduced)
	}

	for _, bad := range []string{
		"/chart/mesh_packet_rssi.json?node=bogus",
		"/chart/mesh_packet_rssi.json?from=x",
		"/chart/mesh_packet_rssi.json?reduce=median",
		"/chart/noext",
	} {
		if code, _ := fetch(t, srv.URL+bad); code != 400 {
			t.Errorf("GET %s = %d, want 400", bad, code)
		}
	}
}

// TestChartJSONNonFiniteSample: a NaN sample (the binary codec carries
// one in a packet's RSSI) cannot be charted as JSON. The route answers
// 500 with the encoder's error, with the read cache on and off, on a
// repeat at the same epoch too.
func TestChartJSONNonFiniteSample(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	p := wire.PacketRecord{TS: 5, Node: 1, Event: wire.EventRx, Type: "DATA",
		Src: 2, Dst: 1, Via: 1, Seq: 1, TTL: 10, Size: 30, RSSIdBm: math.NaN(), SNRdB: 5}
	if err := c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 5, Packets: []wire.PacketRecord{p}}); err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		srv := httptest.NewServer(New(c, nil, Config{DisableCache: disable}).Handler())
		for i := 0; i < 2; i++ {
			code, body := fetch(t, srv.URL+"/chart/mesh_packet_rssi.json?node=N0001&from=0&to=10")
			if code != http.StatusInternalServerError || !strings.Contains(body, "unsupported value") {
				t.Fatalf("DisableCache=%v request %d: %d %q, want 500 with the encoder's error", disable, i, code, body)
			}
		}
		srv.Close()
	}
}
