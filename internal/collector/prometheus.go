package collector

import (
	"fmt"
	"net/http"
	"strings"

	"lorameshmon/internal/metrics"
)

// Prometheus text exposition (format 0.0.4) of the collector's state, so
// an existing metrics stack can scrape the monitoring server alongside
// the built-in dashboard. Counter totals come from the node registry's
// newest summaries; gauges reflect the latest reported values.

// ServeMetrics serves GET /api/v1/metrics (and a server's /metrics):
// the self-observability registry (ingest/HTTP/tsdb/alert families)
// followed by the mesh-domain exposition, so one scrape covers the
// monitor and the monitored network alike.
func (c *Collector) ServeMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.reg.WriteText(w)                      //nolint:errcheck // client gone
	fmt.Fprint(w, c.PrometheusExposition()) //nolint:errcheck // client gone
}

// PrometheusExposition renders the current state in Prometheus text
// format, through the metrics package's header, label escaping and
// value formatting.
func (c *Collector) PrometheusExposition() string {
	// Writes to a strings.Builder cannot fail, so their errors are not
	// checked.
	var sb strings.Builder
	single := func(name, help string, kind metrics.Kind, v float64) {
		metrics.WriteHeader(&sb, name, help, kind)
		metrics.WriteSample(&sb, name, nil, nil, v)
	}
	stats := c.Stats()
	single("meshmon_batches_ingested_total", "Telemetry batches accepted by the collector.",
		metrics.KindCounter, float64(stats.BatchesIngested))
	single("meshmon_batches_rejected_total", "Telemetry batches rejected as invalid.",
		metrics.KindCounter, float64(stats.BatchesRejected))
	single("meshmon_records_ingested_total", "Telemetry records materialised into the store.",
		metrics.KindCounter, float64(stats.RecordsIngested))
	single("meshmon_nodes_known", "Mesh nodes present in the registry.",
		metrics.KindGauge, float64(stats.NodesKnown))

	nodes := c.Nodes()
	nodeLabel := []string{"node"}
	// perNode writes one family with a sample per node get reports; a
	// family without samples is left out entirely.
	perNode := func(name, help string, kind metrics.Kind, get func(NodeInfo) (float64, bool)) {
		header := false
		for _, n := range nodes {
			v, ok := get(n)
			if !ok {
				continue
			}
			if !header {
				metrics.WriteHeader(&sb, name, help, kind)
				header = true
			}
			metrics.WriteSample(&sb, name, nodeLabel, []string{n.ID.String()}, v)
		}
	}
	perNode("meshmon_node_last_heartbeat_seconds", "Record time of the node's newest heartbeat.", metrics.KindGauge,
		func(n NodeInfo) (float64, bool) { return n.LastBeatTS, true })
	perNode("meshmon_node_uptime_seconds", "Node uptime from its newest heartbeat.", metrics.KindGauge,
		func(n NodeInfo) (float64, bool) { return n.UptimeS, true })
	perNode("meshmon_node_batches_lost_total", "Upload batches lost per node (sequence gaps).", metrics.KindCounter,
		func(n NodeInfo) (float64, bool) { return float64(n.BatchesLost), true })
	statGauge := func(name, help string, get func(NodeInfo) float64) {
		perNode(name, help, metrics.KindGauge, func(n NodeInfo) (float64, bool) {
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
	if len(links) == 0 {
		return sb.String()
	}
	linkLabels := []string{"rx", "tx"}
	perLink := func(name, help string, kind metrics.Kind, get func(LinkObs) float64) {
		metrics.WriteHeader(&sb, name, help, kind)
		for _, l := range links {
			metrics.WriteSample(&sb, name, linkLabels, []string{l.Rx.String(), l.Tx.String()}, get(l))
		}
	}
	perLink("meshmon_link_rssi_dbm", "Mean RSSI of the observed direct link.", metrics.KindGauge,
		func(l LinkObs) float64 { return l.MeanRSSI })
	perLink("meshmon_link_observations_total", "HELLO receptions observed on the direct link.", metrics.KindCounter,
		func(l LinkObs) float64 { return float64(l.Count) })
	return sb.String()
}
