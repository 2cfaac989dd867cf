package experiments

import (
	"fmt"
	"math"
	"time"

	"lorameshmon"
	"lorameshmon/internal/baseline"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/tsdb"
)

// F1PDRvsSize measures application delivery ratio as the mesh grows at
// constant density.
func F1PDRvsSize() Table {
	t := Table{
		ID:      "F1",
		Title:   "Mesh PDR vs network size (random geometric, constant density, convergecast every 2 min, 2 h)",
		Columns: []string{"nodes", "area side (m)", "PDR", "collided rx", "fwd/packet"},
	}
	sizes := []int{5, 10, 15, 20, 30, 40}
	rows := Sweep(len(sizes), func(i int) []string {
		n := sizes[i]
		spec := baseSpec(11, n)
		spec.AreaM = areaForDensity(n)
		spec.Monitor = false
		dep, err := buildDep(spec)
		if err != nil {
			panic("experiments: F1: " + err.Error())
		}
		dep.Start()
		if err := dep.ConvergecastTraffic(1, 2*time.Minute, 20, false); err != nil {
			panic("experiments: F1: " + err.Error())
		}
		dep.RunFor(2 * time.Hour)
		totals := dep.AppTotals()
		var forwarded uint64
		for _, nd := range dep.Nodes {
			forwarded += nd.Router().Counters().Forwarded
		}
		fwdPerPkt := 0.0
		if totals.Enqueued > 0 {
			fwdPerPkt = float64(forwarded) / float64(totals.Enqueued)
		}
		return []string{d(n), f1(spec.AreaM), pct(dep.PDR()),
			d(dep.Medium.Stats().Collided), f2(fwdPerPkt)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("PDR declines with size: collisions start dominating once relaying (fwd/packet) kicks in past ~20 nodes")
	return t
}

// buildDep builds an unmonitored deployment (panic-free wrapper lives in
// callers; errors here bubble up).
func buildDep(spec lorameshmon.Spec) (*lorameshmon.Deployment, error) {
	spec.Monitor = false
	sys, err := lorameshmon.NewWithOptions(spec, lorameshmon.Options{})
	if err != nil {
		return nil, err
	}
	return sys.Deployment, nil
}

// F2PDRvsHops measures delivery ratio as a function of hop distance on a
// controlled line.
func F2PDRvsHops() Table {
	t := Table{
		ID:      "F2",
		Title:   "PDR vs hop distance (9-node line, each node sends to node 1 every 2 min, 2 h)",
		Columns: []string{"hops", "offered", "delivered", "PDR"},
	}
	const n = 9
	spec := lineSpec(13, n)
	spec.Monitor = false
	dep, err := buildDep(spec)
	if err != nil {
		panic("experiments: F2: " + err.Error())
	}
	perSrc := make(map[radio.ID]uint64)
	dep.Nodes[0].OnReceive(func(src radio.ID, _ []byte, _ radio.RxInfo) {
		perSrc[src]++
	})
	dep.Start()
	if err := dep.ConvergecastTraffic(1, 2*time.Minute, 20, false); err != nil {
		panic("experiments: F2: " + err.Error())
	}
	dep.RunFor(2 * time.Hour)
	for hop := 1; hop < n; hop++ {
		src := radio.ID(hop + 1)
		offered := dep.Node(src).App().Offered
		delivered := perSrc[src]
		pdr := 0.0
		if offered > 0 {
			pdr = float64(delivered) / float64(offered)
		}
		t.AddRow(d(hop), d(offered), d(delivered), pct(pdr))
	}
	t.Note("per-hop loss compounds: PDR decays roughly geometrically with distance")
	return t
}

// F3Convergence measures cold-start routing convergence versus network
// diameter.
func F3Convergence() Table {
	t := Table{
		ID:      "F3",
		Title:   "Cold-start routing convergence vs network size (line topology, 60 s hellos)",
		Columns: []string{"nodes", "diameter (hops)", "convergence (s)", "telemetry-visible (s)"},
	}
	sizes := []int{2, 4, 6, 8, 10, 12}
	rows := Sweep(len(sizes), func(i int) []string {
		n := sizes[i]
		spec := lineSpec(17, n)
		sys, err := lorameshmon.New(spec)
		if err != nil {
			panic("experiments: F3: " + err.Error())
		}
		sys.Start()
		at, ok := sys.Deployment.TimeToConvergence(time.Hour, 5*time.Second)
		conv := "never"
		if ok {
			conv = f1(at.Seconds())
		}
		// Let the agents report the converged tables, then find when the
		// server could first have known.
		sys.RunFor(5 * time.Minute)
		visible := "n/a"
		if ts, ok := convergenceVisible(sys, n); ok {
			visible = f1(ts)
		}
		return []string{d(n), d(n - 1), conv, visible}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("convergence grows with diameter (one hello interval per hop on average); the dashboard lags by up to a stats interval plus upload latency")
	return t
}

func convergenceVisible(sys *lorameshmon.System, n int) (float64, bool) {
	latest := 0.0
	for _, info := range sys.Collector.Nodes() {
		res, ok := sys.DB.QueryOne("node_route_count",
			tsdb.Labels{"node": info.ID.String()}, 0, math.MaxFloat64)
		if !ok {
			return 0, false
		}
		first := math.NaN()
		for _, p := range res.Points {
			if p.Value >= float64(n-1) {
				first = p.TS
				break
			}
		}
		if math.IsNaN(first) {
			return 0, false
		}
		if first > latest {
			latest = first
		}
	}
	return latest, true
}

// F4Airtime sweeps offered load and shows per-node airtime saturating at
// the EU868 duty-cycle ceiling.
func F4Airtime() Table {
	t := Table{
		ID:      "F4",
		Title:   "Airtime utilisation vs offered load (9-node grid, EU868 1%, random traffic, 1 h)",
		Columns: []string{"packet interval", "mean duty cycle", "max duty cycle", "queue-full drops", "PDR"},
	}
	intervals := []time.Duration{10 * time.Second, 20 * time.Second,
		60 * time.Second, 180 * time.Second}
	rows := Sweep(len(intervals), func(i int) []string {
		interval := intervals[i]
		spec := baseSpec(19, 9)
		spec.Layout = lorameshmon.Grid
		spec.SpacingM = 2000
		spec.Monitor = false
		dep, err := buildDep(spec)
		if err != nil {
			panic("experiments: F4: " + err.Error())
		}
		dep.Start()
		if err := dep.RandomTraffic(interval, 20, false); err != nil {
			panic("experiments: F4: " + err.Error())
		}
		dep.RunFor(time.Hour)
		now := dep.Sim.Now()
		var sum, max float64
		var qdrops uint64
		for _, nd := range dep.Nodes {
			u := nd.Radio().Limiter().Utilization(now)
			sum += u
			if u > max {
				max = u
			}
			qdrops += nd.Router().Counters().DropQueueFull
		}
		return []string{interval.String(), f3(sum / float64(len(dep.Nodes))), f3(max),
			d(qdrops), pct(dep.PDR())}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("utilisation saturates at the 1%% regulatory ceiling; the CSMA queue absorbs the excess until it overflows and PDR degrades")
	return t
}

// F5Completeness sweeps uplink loss and compares buffering against
// fire-and-forget reporting.
func F5Completeness() Table {
	t := Table{
		ID:      "F5",
		Title:   "Monitoring completeness vs uplink loss (5-node line, 1 h)",
		Columns: []string{"uplink loss", "completeness (buffered)", "completeness (fire-and-forget)"},
	}
	run := func(loss float64, disableBuffering bool) float64 {
		spec := lineSpec(23, 5)
		spec.Uplink.LossRate = loss
		spec.Agent.DisableBuffering = disableBuffering
		spec.Agent.RetryMin = 5 * time.Second
		spec.Agent.RetryMax = time.Minute
		sys, err := lorameshmon.New(spec)
		if err != nil {
			panic("experiments: F5: " + err.Error())
		}
		sys.Start()
		if err := sys.Deployment.ConvergecastTraffic(1, 2*time.Minute, 20, false); err != nil {
			panic("experiments: F5: " + err.Error())
		}
		sys.RunFor(time.Hour)
		return sys.MonitoringCompleteness()
	}
	losses := []float64{0, 0.1, 0.2, 0.3, 0.5}
	rows := Sweep(len(losses), func(i int) []string {
		loss := losses[i]
		return []string{pct(loss), pct(run(loss, false)), pct(run(loss, true))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("buffered retries recover nearly everything; fire-and-forget loses roughly the uplink loss rate")
	return t
}

// F6TopologyInference measures how fast the server's inferred topology
// approaches ground truth.
func F6TopologyInference() Table {
	t := Table{
		ID:      "F6",
		Title:   "Topology-inference accuracy vs observation time (12-node random mesh)",
		Columns: []string{"observation time", "edges inferred", "precision", "recall", "F1"},
	}
	spec := baseSpec(29, 12)
	spec.AreaM = areaForDensity(12)
	sys, err := lorameshmon.New(spec)
	if err != nil {
		panic("experiments: F6: " + err.Error())
	}
	sys.Start()
	checkpoints := []time.Duration{2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
		20 * time.Minute, 40 * time.Minute, 80 * time.Minute}
	prev := time.Duration(0)
	for _, cp := range checkpoints {
		sys.RunFor(cp - prev)
		prev = cp
		acc := sys.TopologyAccuracy(1)
		inferred := sys.InferTopology(1)
		t.AddRow(cp.String(), d(inferred.Len()), f2(acc.Precision), f2(acc.Recall), f2(acc.F1))
	}
	t.Note("recall climbs as hellos accumulate; precision stays high because received HELLOs are direct evidence")
	return t
}

// T3FailureDetection measures node-down detection latency versus the
// heartbeat interval.
func T3FailureDetection() Table {
	t := Table{
		ID:      "T3",
		Title:   "Node-failure detection latency vs heartbeat interval (timeout = 3 intervals, checks every 5 s)",
		Columns: []string{"heartbeat interval", "timeout", "detection latency (s)", "latency/interval"},
	}
	hbs := []time.Duration{10 * time.Second, 30 * time.Second,
		60 * time.Second, 120 * time.Second}
	rows := Sweep(len(hbs), func(i int) []string {
		hb := hbs[i]
		spec := lineSpec(31, 3)
		spec.Agent.HeartbeatInterval = hb
		timeout := 3 * hb
		sys, err := lorameshmon.NewWithOptions(spec, lorameshmon.Options{
			Alert:              alertConfigWithTimeout(timeout),
			AlertCheckInterval: 5 * time.Second,
		})
		if err != nil {
			panic("experiments: T3: " + err.Error())
		}
		sys.Start()
		sys.RunFor(10 * time.Minute)
		killAt := sys.Deployment.Sim.Now()
		sys.Deployment.Node(3).Fail()
		sys.RunFor(timeout + 10*time.Minute)
		latency := math.NaN()
		for _, a := range sys.FiredAlerts() {
			if a.Kind == "node-down" && a.Node == 3 {
				latency = a.FiredAt - killAt.Seconds()
				break
			}
		}
		if math.IsNaN(latency) {
			return []string{hb.String(), timeout.String(), "not detected", "-"}
		}
		return []string{hb.String(), timeout.String(), f1(latency), f2(latency / hb.Seconds())}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("latency is the timeout minus the age of the last heartbeat at death (~2 intervals on average) plus the check cadence")
	return t
}

// F7QueryLatency measures dashboard/TSDB range-query latency as the
// store grows, reading through the compressed-block engine: one-second
// telemetry is ingested via cached series handles (the collector's hot
// path), rollup tiers are maintained alongside, and each query class
// exercises a different read path — tier-aware chart queries, narrow
// raw decodes, metadata-only counts and full streaming scans.
func F7QueryLatency() Table {
	t := Table{
		ID:      "F7",
		Title:   "TSDB query latency vs stored points (10 series, wall-clock)",
		Columns: []string{"points total", "chart 640 buckets", "1%-window query", "full count", "full scan (sum)"},
	}
	for _, perSeries := range []int{100, 1000, 10_000, 100_000} {
		db := tsdb.New()
		db.ConfigureTiers(tsdb.Retention{}) // rollups on, keep every tier
		for s := 0; s < 10; s++ {
			h := db.Series("m", tsdb.Labels{"node": fmt.Sprintf("N%04X", s+1)})
			for i := 0; i < perSeries; i++ {
				h.Append(float64(i), float64(i%97))
			}
		}
		total := 10 * perSeries
		span := float64(perSeries)
		chart := timeItN(5, func() { db.QueryRange("m", nil, 0, span, span/640, tsdb.AggAvg) })
		narrow := timeItN(10, func() { db.Query("m", nil, span*0.49, span*0.50) })
		count := timeIt(func() { db.AggregateRange("m", nil, 0, span, tsdb.AggCount) })
		scan := timeItN(2, func() { db.AggregateRange("m", nil, 0, span, tsdb.AggSum) })
		t.AddRow(d(total), chart.String(), narrow.String(), count.String(), scan.String())
	}
	t.Note("chart queries switch to rollup tiers once pixel width exceeds a bucket and counts read chunk metadata, so both stay near-constant; only the full streaming sum is linear, decoding compressed chunks without materialising points")
	return t
}

// F7bTieredQuery demonstrates tier selection over a 24 h synthetic
// window under per-tier retention: raw keeps 2 h, 1-minute rollups keep
// 12 h, 1-hour rollups keep everything. Queries over windows whose raw
// (or 1m) data is already evicted transparently climb to the coarsest
// tier still covering the range start.
func F7bTieredQuery() Table {
	t := Table{
		ID:      "F7b",
		Title:   "Tiered retention query routing (20 nodes, 24 h at 10 s cadence)",
		Columns: []string{"window", "step", "tier used", "points returned", "latency"},
	}
	const day = 86400.0
	db := tsdb.New()
	db.ConfigureTiers(tsdb.Retention{RawS: 7200, Rollup1mS: 43200})
	for s := 0; s < 20; s++ {
		h := db.Series("node_battery", tsdb.Labels{"node": fmt.Sprintf("N%04X", s+1)})
		for i := 0; i < 8640; i++ {
			h.Append(float64(i)*10, 100-float64(i)*0.002+float64(s))
		}
	}
	db.Retain(day)
	queries := []struct {
		label      string
		from, step float64
	}{
		{"24 h", 0, 3600},
		{"24 h", 0, 60},
		{"last 12 h", day - 43200, 60},
		{"last 1 h", day - 3600, 10},
		{"24 h", 0, 10},
	}
	for _, q := range queries {
		tier := db.PickTier(q.from, q.step)
		points := 0
		lat := timeIt(func() {
			points = 0
			for _, res := range db.QueryRange("node_battery", nil, q.from, day, q.step, tsdb.AggAvg) {
				points += len(res.Points)
			}
		})
		t.AddRow(q.label, fmt.Sprintf("%gs", q.step), tier, d(points), lat.String())
	}
	t.Note("rows 2 and 5 ask for resolutions the evicted tiers would have served; the store answers from 1 h rollups instead of failing or decoding nothing")
	return t
}

func timeIt(f func()) time.Duration { return timeItN(20, f) }

func timeItN(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// F8MeshVsStar compares the mesh against the LoRaWAN single-gateway
// baseline as the sensor moves beyond single-hop range.
func F8MeshVsStar() Table {
	t := Table{
		ID:      "F8",
		Title:   "Delivery vs node-gateway distance: LoRaWAN star baseline vs mesh with relays (2 h)",
		Columns: []string{"distance (x range)", "star PDR", "mesh PDR", "mesh hops"},
	}
	ch := phy.DefaultChannel()
	ch.ShadowingSigmaDB = 0
	rangeM := ch.MaxRangeM(phy.DefaultParams())
	fracs := []float64{0.5, 0.8, 1.2, 1.6, 2.4, 3.2}
	rows := Sweep(len(fracs), func(i int) []string {
		dist := fracs[i] * rangeM
		star := starPDR(41, dist)
		meshPDR, hops := meshChainPDR(43, dist, rangeM)
		return []string{f1(fracs[i]), pct(star), pct(meshPDR), d(hops)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("the star collapses right past nominal range; the mesh sustains delivery by relaying, which is exactly why mesh-specific monitoring is needed")
	return t
}

// starPDR runs a single gateway + one device at dist for 2 h.
func starPDR(seed int64, dist float64) float64 {
	sim := simkit.New(seed)
	cfg := radio.DefaultConfig()
	cfg.Channel.ShadowingSigmaDB = 0
	medium := radio.NewMedium(sim, cfg)
	gw, err := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.EU868())
	if err != nil {
		panic("experiments: F8: " + err.Error())
	}
	dev, err := medium.AttachRadio(2, phy.Point{X: dist}, phy.DefaultParams(), phy.EU868())
	if err != nil {
		panic("experiments: F8: " + err.Error())
	}
	net := baseline.New(sim, gw)
	if err := net.AddDevice(dev, baseline.DeviceConfig{
		Interval: 2 * time.Minute, JitterFrac: 0.2, PayloadBytes: 20,
	}); err != nil {
		panic("experiments: F8: " + err.Error())
	}
	net.Start()
	sim.RunFor(2 * time.Hour)
	return net.Totals().PDR()
}

// meshChainPDR places relays every 0.8×range between the gateway and the
// sensor at dist, then measures end-to-end delivery.
func meshChainPDR(seed int64, dist, rangeM float64) (float64, int) {
	hopLen := 0.8 * rangeM
	hops := int(math.Ceil(dist / hopLen))
	if hops < 1 {
		hops = 1
	}
	spec := baseSpec(seed, hops+1)
	spec.Layout = lorameshmon.Line
	spec.SpacingM = dist / float64(hops)
	spec.Monitor = false
	dep, err := buildDep(spec)
	if err != nil {
		panic("experiments: F8 mesh: " + err.Error())
	}
	dep.Start()
	// Only the far end generates traffic (matching the star's one device).
	err = dep.Node(radio.ID(hops + 1)).AddTraffic(nodeTraffic(2 * time.Minute))
	if err != nil {
		panic("experiments: F8 mesh: " + err.Error())
	}
	dep.RunFor(2 * time.Hour)
	return dep.PDR(), hops
}
