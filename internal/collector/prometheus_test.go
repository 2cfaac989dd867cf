package collector

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

func seededForProm(t *testing.T) *Collector {
	t.Helper()
	c := newCollector()
	err := c.Ingest(wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 100,
		Heartbeats: []wire.Heartbeat{{TS: 100, Node: 1, UptimeS: 100}},
		Stats: []wire.NodeStats{{
			TS: 95, Node: 1, UptimeS: 95, DataSent: 12, Forwarded: 3,
			Delivered: 7, RouteCount: 2, QueueLen: 1, DutyCycleUsed: 0.003,
		}},
		Packets: []wire.PacketRecord{{
			TS: 90, Node: 1, Event: wire.EventRx, Type: "HELLO", Src: 2,
			Dst: 0xFFFF, Via: 0xFFFF, Seq: 1, TTL: 1, Size: 15,
			RSSIdBm: -90, SNRdB: 9, ForUs: true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPrometheusExposition(t *testing.T) {
	c := seededForProm(t)
	out := c.PrometheusExposition()
	for _, want := range []string{
		"# HELP meshmon_batches_ingested_total",
		"# TYPE meshmon_batches_ingested_total counter",
		"meshmon_batches_ingested_total 1",
		"meshmon_nodes_known 1",
		`meshmon_node_routes{node="N0001"} 2`,
		`meshmon_node_duty_cycle{node="N0001"} 0.003`,
		`meshmon_node_data_sent_total{node="N0001"} 12`,
		`meshmon_link_rssi_dbm{rx="N0001",tx="N0002"} -90`,
		`meshmon_link_observations_total{rx="N0001",tx="N0002"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestPrometheusEndpoint(t *testing.T) {
	c := seededForProm(t)
	srv := httptest.NewServer(c.APIHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

// TestSelfMetricsEndToEnd drives the real HTTP ingest path and checks
// the scrape covers the self-observability families: ingest outcomes,
// per-route HTTP counters with status codes, and the latency histogram.
func TestSelfMetricsEndToEnd(t *testing.T) {
	c := newCollector()
	srv := httptest.NewServer(c.APIHandler())
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	good := `{"node":1,"seq_no":1,"sent_at":10,"heartbeats":[{"ts":10,"node":1}]}`
	if resp := post(good); resp.StatusCode != http.StatusOK {
		t.Fatalf("good batch status = %v", resp.Status)
	}
	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status = %v", resp.Status)
	}
	// A stats read so the per-route counters grow beyond ingest.
	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	scrape, err := http.Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, scrape.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`meshmon_ingest_batches_total{result="ok"} 1`,
		`meshmon_ingest_records_total 1`,
		`meshmon_http_requests_total{route="ingest",code="200"} 1`,
		`meshmon_http_requests_total{route="ingest",code="400"} 1`,
		`meshmon_http_requests_total{route="stats",code="200"} 1`,
		`meshmon_http_request_seconds_bucket{route="ingest",le="+Inf"}`,
		"meshmon_ingest_latency_seconds_count 1",
		// The mesh-domain exposition rides along on the same scrape.
		"meshmon_batches_ingested_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("self-metrics scrape missing %q", want)
		}
	}
	// The bytes counter credits exactly the accepted request body.
	wantBytes := "meshmon_ingest_bytes_total " + strconv.Itoa(len(good))
	if !strings.Contains(out, wantBytes) {
		t.Errorf("self-metrics scrape missing %q", wantBytes)
	}
}

func TestPrometheusEmptyCollector(t *testing.T) {
	c := newCollector()
	out := c.PrometheusExposition()
	if !strings.Contains(out, "meshmon_nodes_known 0") {
		t.Fatalf("empty exposition:\n%s", out)
	}
	if strings.Contains(out, "meshmon_link_rssi_dbm{") {
		t.Fatal("link metrics emitted without links")
	}
}

// TestPrometheusExpositionMatchesParent pins the mesh-domain exposition
// to the hand-rolled writer it replaced (parentExposition), byte for
// byte, on the seeded collector above and on a random 50-node fleet.
func TestPrometheusExpositionMatchesParent(t *testing.T) {
	fleet := New(tsdb.New(), DefaultConfig())
	rng := rand.New(rand.NewSource(50))
	seq := make(map[wire.NodeID]uint64)
	for step := 1; step <= 400; step++ {
		if err := fleet.Ingest(randomFleetBatch(rng, seq, step, 50)); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]*Collector{
		"seeded": seededForProm(t), "fleet": fleet, "empty": newCollector(),
	} {
		if got, want := c.PrometheusExposition(), parentExposition(c); got != want {
			t.Fatalf("%s: exposition differs from the parent writer:\n got %q\nwant %q", name, got, want)
		}
	}
}

// parentExposition is the writer PrometheusExposition replaced: %g
// values and %q-quoted labels, sorted per sample.
func parentExposition(c *Collector) string {
	var sb strings.Builder
	stats := c.Stats()
	parentWriteMetric(&sb, "meshmon_batches_ingested_total", "counter",
		"Telemetry batches accepted by the collector.",
		parentSample{value: float64(stats.BatchesIngested)})
	parentWriteMetric(&sb, "meshmon_batches_rejected_total", "counter",
		"Telemetry batches rejected as invalid.",
		parentSample{value: float64(stats.BatchesRejected)})
	parentWriteMetric(&sb, "meshmon_records_ingested_total", "counter",
		"Telemetry records materialised into the store.",
		parentSample{value: float64(stats.RecordsIngested)})
	parentWriteMetric(&sb, "meshmon_nodes_known", "gauge",
		"Mesh nodes present in the registry.",
		parentSample{value: float64(stats.NodesKnown)})

	nodes := c.Nodes()
	perNode := func(name, help, typ string, get func(NodeInfo) (float64, bool)) {
		var samples []parentSample
		for _, n := range nodes {
			if v, ok := get(n); ok {
				samples = append(samples, parentSample{
					labels: map[string]string{"node": n.ID.String()},
					value:  v,
				})
			}
		}
		if len(samples) > 0 {
			parentWriteMetric(&sb, name, typ, help, samples...)
		}
	}
	perNode("meshmon_node_last_heartbeat_seconds", "Record time of the node's newest heartbeat.", "gauge",
		func(n NodeInfo) (float64, bool) { return n.LastBeatTS, true })
	perNode("meshmon_node_uptime_seconds", "Node uptime from its newest heartbeat.", "gauge",
		func(n NodeInfo) (float64, bool) { return n.UptimeS, true })
	perNode("meshmon_node_batches_lost_total", "Upload batches lost per node (sequence gaps).", "counter",
		func(n NodeInfo) (float64, bool) { return float64(n.BatchesLost), true })
	statGauge := func(name, help string, get func(NodeInfo) float64) {
		perNode(name, help, "gauge", func(n NodeInfo) (float64, bool) {
			if n.LastStats == nil {
				return 0, false
			}
			return get(n), true
		})
	}
	statGauge("meshmon_node_routes", "Destinations in the node's routing table.",
		func(n NodeInfo) float64 { return float64(n.LastStats.RouteCount) })
	statGauge("meshmon_node_queue_depth", "Packets waiting in the node's transmit queue.",
		func(n NodeInfo) float64 { return float64(n.LastStats.QueueLen) })
	statGauge("meshmon_node_duty_cycle", "Fraction of time spent transmitting.",
		func(n NodeInfo) float64 { return n.LastStats.DutyCycleUsed })
	statGauge("meshmon_node_data_sent_total", "Application data packets originated.",
		func(n NodeInfo) float64 { return float64(n.LastStats.DataSent) })
	statGauge("meshmon_node_forwarded_total", "Packets relayed for other nodes.",
		func(n NodeInfo) float64 { return float64(n.LastStats.Forwarded) })
	statGauge("meshmon_node_delivered_total", "Payloads delivered to the node's application.",
		func(n NodeInfo) float64 { return float64(n.LastStats.Delivered) })

	links := c.Links(0)
	if len(links) > 0 {
		var rssi, cnt []parentSample
		for _, l := range links {
			lbl := map[string]string{"tx": l.Tx.String(), "rx": l.Rx.String()}
			rssi = append(rssi, parentSample{labels: lbl, value: l.MeanRSSI})
			cnt = append(cnt, parentSample{labels: lbl, value: float64(l.Count)})
		}
		parentWriteMetric(&sb, "meshmon_link_rssi_dbm", "gauge",
			"Mean RSSI of the observed direct link.", rssi...)
		parentWriteMetric(&sb, "meshmon_link_observations_total", "counter",
			"HELLO receptions observed on the direct link.", cnt...)
	}
	return sb.String()
}

type parentSample struct {
	labels map[string]string
	value  float64
}

func parentWriteMetric(sb *strings.Builder, name, typ, help string, samples ...parentSample) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		if len(s.labels) == 0 {
			fmt.Fprintf(sb, "%s %g\n", name, s.value)
			continue
		}
		keys := make([]string, 0, len(s.labels))
		for k := range s.labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf(`%s=%q`, k, s.labels[k]))
		}
		fmt.Fprintf(sb, "%s{%s} %g\n", name, strings.Join(parts, ","), s.value)
	}
}
