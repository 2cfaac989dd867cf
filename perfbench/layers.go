package main

import (
	"bytes"
	"runtime/pprof"

	"lorameshmon/internal/metrics"
)

// layerNames are the per-layer metrics a traced run reports, in the
// order BENCHMARK.json lists them. A layer that does no work in a
// workload reports 0.
var layerNames = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"uplink.send_p50_ms", "ms"},
		{"uplink.send_p99_ms", "ms"},
		{"uplink.send_n", "count"},
		{"collector.http_ingest_p50_us", "us"},
		{"collector.http_ingest_p99_us", "us"},
		{"collector.ingest_p50_us", "us"},
		{"collector.sink_ingest_us_per_batch", "us"},
		{"collector.dup", "count"},
		{"collector.rejected", "count"},
		{"wal.appends_per_fsync", "ratio"},
		{"wal.bytes_per_record", "B"},
		{"wal.disk_bytes_per_record", "B"},
		{"wal.open_s", "s"},
		{"wal.replay_s", "s"},
		{"wal.recover_s", "s"},
	}
	for _, m := range querierMethods {
		out = append(out,
			struct{ name, unit string }{"tsdb.query." + m + "_us", "us"},
			struct{ name, unit string }{"tsdb.query." + m + "_per_op", "count"})
	}
	out = append(out, []struct{ name, unit string }{
		{"tsdb.query_p50_us", "us"},
		{"tsdb.seal_p50_us", "us"},
		{"tsdb.series", "count"},
		{"tsdb.bytes_per_sample", "B"},
	}...)
	for _, m := range viewMethods {
		out = append(out,
			struct{ name, unit string }{"collector.view." + m + "_us", "us"},
			struct{ name, unit string }{"collector.view." + m + "_per_op", "count"})
	}
	out = append(out, []struct{ name, unit string }{
		{"readcache.hit_ratio", "ratio"},
		{"readcache.entries", "count"},
		{"readcache.sse_dropped", "count"},
	}...)
	for _, p := range dashPanels {
		out = append(out, struct{ name, unit string }{"dashboard." + p + "_p50_us", "us"})
	}
	out = append(out, []struct{ name, unit string }{
		{"dashboard.self_us_per_get", "us"},
		{"dashboard.get_p99_ms", "ms"},
		{"dashboard.sse_delta_p99_ms", "ms"},
		{"federate.router_self_p50_us", "us"},
		{"federate.member_send_p50_us", "us"},
		{"federate.fanout_p50_us", "us"},
		{"federate.retries", "count"},
		{"simkit.events", "count"},
		{"simkit.events_per_sim_s", "1/s"},
		{"simkit.self_share", "ratio"},
		{"radio.tx_frames", "count"},
		{"radio.delivery_attempts_per_tx", "ratio"},
		{"mesh.route_entries_mean", "count"},
		{"mesh.hellos", "count"},
		{"agent.batches", "count"},
		{"agent.records_per_batch", "count"},
		{"uplink.sim_bytes_per_batch", "B"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"loadgen.lag_p99_ms", "ms"},
	}...)
	for _, l := range profileLayers {
		out = append(out, struct{ name, unit string }{"cpu_share." + l, "ratio"})
	}
	return append(out, []struct{ name, unit string }{
		{"trace.op_p50_ms", "ms"},
		{"trace.overhead_op_p50", "ratio"},
		{"trace.overhead_cpu_per_op", "ratio"},
	}...)
}()

var (
	querierMethods = []string{"QueryRange", "AggregateRange", "Query", "IterOne", "Latest"}
	viewMethods    = []string{"Nodes", "Node", "Links", "Recent", "Stats", "MaxTS"}
	dashPanels     = []string{"overview", "node", "chart", "traffic", "topology"}
)

// dashSpan names a dashboard request's span by panel.
func dashSpan(path string) string {
	switch {
	case path == "/":
		return "dash.overview"
	case len(path) > 6 && path[:6] == "/node/":
		return "dash.node"
	case len(path) > 7 && path[:7] == "/chart/":
		return "dash.chart"
	case path == "/traffic" || path == "/topology" || path == "/alerts" || path == "/health":
		return "dash." + path[1:]
	}
	return "dash.other"
}

// apiSpan names a collector API request's span.
func apiSpan(path string) string {
	if path == "/api/v1/ingest" {
		return "collector.http_ingest"
	}
	return "collector.http"
}

// spanMetrics derives the span-based per-layer metrics of a traced run;
// ops is the number of timed operations the per-op counts divide by.
func spanMetrics(res *result, spans []span, ops int) {
	st := spanStats{spans}
	per := float64(max(ops, 1))
	for _, m := range viewMethods {
		d := st.byName("view." + m)
		res.layer["collector.view."+m+"_us"] = metric{Value: mean(d), N: len(d)}
		res.layer["collector.view."+m+"_per_op"] = metric{Value: float64(len(d)) / per, N: ops}
	}
	for _, m := range querierMethods {
		d := st.byName("tsdb." + m)
		res.layer["tsdb.query."+m+"_us"] = metric{Value: mean(d), N: len(d)}
		res.layer["tsdb.query."+m+"_per_op"] = metric{Value: float64(len(d)) / per, N: ops}
	}
	for _, p := range dashPanels {
		d := st.byName("dash." + p)
		res.layer["dashboard."+p+"_p50_us"] = metric{Value: quantileOr0(d, 0.5), N: len(d)}
	}
	self := st.selfUS(func(name string) bool { return len(name) > 5 && name[:5] == "dash." })
	res.layer["dashboard.self_us_per_get"] = metric{Value: mean(self), N: len(self)}

	ingest := append(st.byName("collector.http_ingest"), st.byName("member.http_ingest")...)
	res.layer["collector.http_ingest_p50_us"] = metric{Value: quantileOr0(ingest, 0.5), N: len(ingest)}
	res.layer["collector.http_ingest_p99_us"] = metric{Value: quantileOr0(ingest, 0.99), N: len(ingest)}
	router := st.containedSelfUS("federate.router", "member.http_ingest")
	res.layer["federate.router_self_p50_us"] = metric{Value: quantileOr0(router, 0.5), N: len(router)}
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// registryMetrics reads the program's own self-observability registries.
func registryMetrics(res *result, regs ...*metrics.Registry) {
	q, n := histQuantile(regs, "meshmon_ingest_latency_seconds", 0.5)
	res.layer["collector.ingest_p50_us"] = metric{Value: q * 1e6, N: n}
	res.layer["collector.dup"] = metric{Value: sumFamily(regs, "meshmon_ingest_batches_total", "dup"), N: 1}
	res.layer["collector.rejected"] = metric{Value: sumFamily(regs, "meshmon_ingest_batches_total", "rejected"), N: 1}
	q, n = histQuantile(regs, "meshmon_tsdb_query_seconds", 0.5)
	res.layer["tsdb.query_p50_us"] = metric{Value: q * 1e6, N: n}
	q, n = histQuantile(regs, "meshmon_tsdb_seal_seconds", 0.5)
	res.layer["tsdb.seal_p50_us"] = metric{Value: q * 1e6, N: n}
	res.layer["tsdb.series"] = metric{Value: sumFamily(regs, "meshmon_tsdb_series"), N: 1}
	if bps := sumFamily(regs, "meshmon_tsdb_bytes_per_sample"); len(regs) > 0 {
		res.layer["tsdb.bytes_per_sample"] = metric{Value: bps / float64(len(regs)), N: 1}
	}
	hits := sumFamily(regs, "meshmon_read_cache_requests_total", "hit")
	misses := sumFamily(regs, "meshmon_read_cache_requests_total", "miss")
	if hits+misses > 0 {
		res.layer["readcache.hit_ratio"] = metric{Value: hits / (hits + misses), N: int(hits + misses)}
	}
	res.layer["readcache.entries"] = metric{Value: sumFamily(regs, "meshmon_read_cache_entries"), N: 1}
	res.layer["readcache.sse_dropped"] = metric{Value: sumFamily(regs, "meshmon_read_sse_dropped_total"), N: 1}
	q, n = histQuantile(regs, "meshmon_federate_member_send_seconds", 0.5)
	res.layer["federate.member_send_p50_us"] = metric{Value: q * 1e6, N: n}
	q, n = histQuantile(regs, "meshmon_federate_fanout_seconds", 0.5)
	res.layer["federate.fanout_p50_us"] = metric{Value: q * 1e6, N: n}
	res.layer["federate.retries"] = metric{Value: sumFamily(regs, "meshmon_federate_retries_total"), N: 1}
	if fs := sumFamily(regs, "meshmon_wal_fsyncs_total"); fs > 0 {
		res.layer["wal.appends_per_fsync"] = metric{Value: sumFamily(regs, "meshmon_wal_appends_total") / fs, N: int(fs)}
	}
}

// sumFamily sums a family's samples across registries; with labels
// given, only samples whose label values equal them.
func sumFamily(regs []*metrics.Registry, name string, labels ...string) float64 {
	total := 0.0
	for _, reg := range regs {
		fam, ok := reg.Family(name)
		if !ok {
			continue
		}
		for _, s := range fam.Samples {
			if len(labels) > 0 && !equalStrings(s.LabelValues, labels) {
				continue
			}
			total += s.Value
		}
	}
	return total
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// histQuantile merges every histogram of a family across registries and
// returns its q-quantile (seconds) and observation count.
func histQuantile(regs []*metrics.Registry, name string, q float64) (float64, int) {
	var merged *metrics.HistogramSnapshot
	for _, reg := range regs {
		fam, ok := reg.Family(name)
		if !ok {
			continue
		}
		for _, s := range fam.Samples {
			if s.Hist == nil {
				continue
			}
			if merged == nil {
				cp := *s.Hist
				cp.Counts = append([]uint64(nil), s.Hist.Counts...)
				merged = &cp
				continue
			}
			for i := range merged.Counts {
				merged.Counts[i] += s.Hist.Counts[i]
			}
			merged.Count += s.Hist.Count
			merged.Sum += s.Hist.Sum
		}
	}
	if merged == nil || merged.Count == 0 {
		return 0, 0
	}
	return merged.Quantile(q), int(merged.Count)
}

// cpuProfile samples the process's CPU during a traced timed phase.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func (e *env) startProfile() *cpuProfile {
	p := &cpuProfile{}
	if e.traced() {
		p.on = pprof.StartCPUProfile(&p.buf) == nil
	}
	return p
}

// stop ends the profile and records each layer's CPU share.
func (p *cpuProfile) stop(res *result) {
	if !p.on {
		return
	}
	pprof.StopCPUProfile()
	shares, err := attributeCPU(p.buf.Bytes())
	if err != nil {
		res.info = append(res.info, "cpu profile: "+err.Error())
		return
	}
	for _, l := range profileLayers {
		res.layer["cpu_share."+l] = metric{Value: shares[l], N: 1}
	}
}
