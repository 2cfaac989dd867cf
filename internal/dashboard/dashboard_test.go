package dashboard

import (
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// seedCollector loads a collector with a small, plausible data set.
func seedCollector(t *testing.T) *collector.Collector {
	t.Helper()
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	batches := []wire.Batch{
		{
			Node: 1, SeqNo: 1, SentAt: 100,
			Heartbeats: []wire.Heartbeat{{TS: 100, Node: 1, UptimeS: 100, Firmware: "fw1"}},
			Stats: []wire.NodeStats{{
				TS: 95, Node: 1, UptimeS: 95, HelloSent: 3, HelloRecv: 2,
				RouteCount: 1, DutyCycleUsed: 0.002,
			}},
			Routes: []wire.RouteSnapshot{{TS: 96, Node: 1,
				Routes: []wire.RouteEntry{{Dst: 2, NextHop: 2, Metric: 1, AgeS: 10, SNRdB: 6}}}},
			Packets: []wire.PacketRecord{
				{TS: 90, Node: 1, Event: wire.EventRx, Type: "HELLO", Src: 2, Dst: 0xFFFF,
					Via: 0xFFFF, Seq: 5, TTL: 1, Size: 15, RSSIdBm: -95, SNRdB: 8, ForUs: true, AirtimeMS: 40},
				{TS: 91, Node: 1, Event: wire.EventTx, Type: "DATA", Src: 1, Dst: 2,
					Via: 2, Seq: 6, TTL: 10, Size: 30, AirtimeMS: 56},
			},
		},
		{
			Node: 2, SeqNo: 1, SentAt: 100,
			Heartbeats: []wire.Heartbeat{{TS: 5, Node: 2, UptimeS: 5}}, // stale → down
			Packets: []wire.PacketRecord{
				{TS: 89, Node: 2, Event: wire.EventRx, Type: "HELLO", Src: 1, Dst: 0xFFFF,
					Via: 0xFFFF, Seq: 4, TTL: 1, Size: 15, RSSIdBm: -96, SNRdB: 7, ForUs: true, AirtimeMS: 40},
				{TS: 92, Node: 2, Event: wire.EventDrop, Type: "DATA", Src: 2, Dst: 1,
					Via: 1, Seq: 9, TTL: 10, Size: 30, Reason: "no-route"},
			},
		},
	}
	for _, b := range batches {
		if err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func newDash(t *testing.T) *httptest.Server {
	t.Helper()
	c := seedCollector(t)
	eng := alert.NewEngine(c, alert.Config{})
	eng.Check(c.MaxTS()) // node 2 is silent → alert fires
	srv := httptest.NewServer(New(c, eng, Config{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthPage(t *testing.T) {
	srv := newDash(t)
	code, body := fetch(t, srv.URL+"/health")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"Server health",
		"batches ingested", "records ingested",
		"ingest p50", "ingest p99",
		"meshmon_ingest_batches_total", "meshmon_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("health page missing %q", want)
		}
	}
}

func TestOverviewPage(t *testing.T) {
	srv := newDash(t)
	code, body := fetch(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"N0001", "N0002", "fw1", "node-down", // registry + alert
		">up<", ">down<", // status rendering
		"batches",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("overview missing %q", want)
		}
	}
}

func TestNodePage(t *testing.T) {
	srv := newDash(t)
	code, body := fetch(t, srv.URL+"/node/N0001")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"Node N0001", "Routing table", "N0002", "/chart/mesh_packet_rssi.svg?node=N0001"} {
		if !strings.Contains(body, want) {
			t.Errorf("node page missing %q", want)
		}
	}
	if code, _ := fetch(t, srv.URL+"/node/N0099"); code != http.StatusNotFound {
		t.Fatalf("missing node status = %d", code)
	}
	if code, _ := fetch(t, srv.URL+"/node/zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad node id status = %d", code)
	}
}

func TestTrafficPage(t *testing.T) {
	srv := newDash(t)
	code, body := fetch(t, srv.URL+"/traffic")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"HELLO", "DATA", "no-route", "drop"} {
		if !strings.Contains(body, want) {
			t.Errorf("traffic page missing %q", want)
		}
	}
}

func TestTopologyPageRendersGraph(t *testing.T) {
	srv := newDash(t)
	code, body := fetch(t, srv.URL+"/topology")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "N0001") {
		t.Fatal("topology page missing SVG graph")
	}
	// Both HELLO directions collapse into one drawn line.
	if got := strings.Count(body, "<line"); got != 1 {
		t.Fatalf("drawn lines = %d, want 1", got)
	}
}

func TestChartEndpointValidSVG(t *testing.T) {
	srv := newDash(t)
	resp, err := http.Get(srv.URL + "/chart/mesh_packet_rssi.svg?node=N0001")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var doc struct {
		XMLName xml.Name `xml:"svg"`
	}
	if err := xml.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chart is not valid XML: %v\n%s", err, body)
	}
	if code, _ := fetch(t, srv.URL+"/chart/notsvg"); code != http.StatusBadRequest {
		t.Fatalf("non-svg chart path status = %d", code)
	}
	if code, _ := fetch(t, srv.URL+"/chart/m.svg?node=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad node param status = %d", code)
	}
	// Unknown metric renders an empty chart, not an error.
	if code, body := fetch(t, srv.URL+"/chart/nope.svg"); code != http.StatusOK || !strings.Contains(body, "no data") {
		t.Fatalf("empty chart: code %d", code)
	}
}

func TestChartMultiSeriesAndSinglePoint(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	c.TSDB().Append("m", tsdb.Labels{"node": "a"}, 1, 5)
	c.TSDB().Append("m", tsdb.Labels{"node": "a"}, 2, 7)
	c.TSDB().Append("m", tsdb.Labels{"node": "b"}, 1, 3)
	srv := httptest.NewServer(New(c, nil, Config{}).Handler())
	defer srv.Close()
	code, body := fetch(t, srv.URL+"/chart/m.svg")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<path") {
		t.Fatal("multi-point series missing path")
	}
	if !strings.Contains(body, "<circle") {
		t.Fatal("single-point series missing marker")
	}
}

func TestSVGEscaping(t *testing.T) {
	chart := svgLineChart{Title: `<script>&"`, Series: []chartSeries{{Label: "a<b"}}}
	out := string(chart.Render())
	if strings.Contains(out, "<script>") {
		t.Fatal("title not escaped")
	}
	var doc struct {
		XMLName xml.Name `xml:"svg"`
	}
	if err := xml.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("escaped chart invalid: %v", err)
	}
}

func TestTopologyGraphIgnoresBadEdges(t *testing.T) {
	g := svgTopology{
		Nodes: []topoNode{{ID: 1}},
		Edges: []topoEdge{{From: 0, To: 5}, {From: -1, To: 0}},
	}
	out := string(g.Render(nil))
	if strings.Contains(out, "<line") {
		t.Fatal("out-of-range edges drawn")
	}
}

func TestAlertsPage(t *testing.T) {
	srv := newDash(t)
	code, body := fetch(t, srv.URL+"/alerts")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"Active alerts", "node-down", "N0002", "Resolved"} {
		if !strings.Contains(body, want) {
			t.Errorf("alerts page missing %q", want)
		}
	}
}

func TestAlertsPageWithoutEngine(t *testing.T) {
	c := seedCollector(t)
	srv := httptest.NewServer(New(c, nil, Config{}).Handler())
	defer srv.Close()
	code, body := fetch(t, srv.URL+"/alerts")
	if code != http.StatusOK || !strings.Contains(body, "none") {
		t.Fatalf("engine-less alerts page: %d", code)
	}
}
