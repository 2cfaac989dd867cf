// Package agent implements the paper's client side: a monitoring agent
// that runs on every LoRa mesh node, captures detailed information about
// the node's in- and outgoing LoRa packets (plus routing-table snapshots,
// counter summaries and heartbeats), buffers it locally, and periodically
// ships batches to the monitoring server over the out-of-band uplink.
//
// The agent observes the mesh router through its Tap, so instrumentation
// never perturbs protocol behaviour. Buffering across uplink failures,
// the bounded-buffer drop policy and batch sizing are all configurable —
// they are the design choices the evaluation ablates.
package agent

import (
	"math"
	"time"

	"lorameshmon/internal/mesh"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/uplink"
	"lorameshmon/internal/wire"
)

// Metrics is a shared set of per-node agent instrument families; build
// one with NewMetrics and hand it to every agent's Config so a whole
// fleet reports into a single registry, labeled by node.
type Metrics struct {
	batches *metrics.CounterVec // node, outcome: sent|acked|failed
	retries *metrics.CounterVec // node
	backoff *metrics.GaugeVec   // node — current retry backoff, seconds
	buffer  *metrics.GaugeVec   // node — records waiting to ship
}

// NewMetrics registers the agent families into reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		batches: reg.NewCounterVec("meshmon_agent_batches_total",
			"Upload batches by node and outcome.", "node", "outcome"),
		retries: reg.NewCounterVec("meshmon_agent_retries_total",
			"Upload retries scheduled after failed batches.", "node"),
		backoff: reg.NewGaugeVec("meshmon_agent_backoff_seconds",
			"Current upload retry backoff (0 = healthy).", "node"),
		buffer: reg.NewGaugeVec("meshmon_agent_buffer_records",
			"Telemetry records buffered awaiting upload.", "node"),
	}
}

// agentInstruments are one agent's cached per-node children, so the
// capture and upload hot paths never touch the family maps.
type agentInstruments struct {
	sent, acked, failed *metrics.Counter
	retries             *metrics.Counter
	backoff             *metrics.Gauge
	buffer              *metrics.Gauge
}

func (m *Metrics) forNode(id wire.NodeID) *agentInstruments {
	n := id.String()
	return &agentInstruments{
		sent:    m.batches.With(n, "sent"),
		acked:   m.batches.With(n, "acked"),
		failed:  m.batches.With(n, "failed"),
		retries: m.retries.With(n),
		backoff: m.backoff.With(n),
		buffer:  m.buffer.With(n),
	}
}

// EnergyProbe exposes a node's battery state for telemetry sampling.
// Declared here (not in internal/energy) so the agent stays independent
// of the battery model; *energy.Account implements it.
type EnergyProbe interface {
	BatteryFraction() float64
	BatteryVoltageV() float64
	HarvestW() float64
}

// Config tunes the monitoring client. Zero fields take defaults.
type Config struct {
	// ReportInterval is the upload cadence.
	ReportInterval time.Duration
	// StatsInterval is how often a NodeStats summary is recorded.
	StatsInterval time.Duration
	// RouteInterval is how often a routing-table snapshot is recorded.
	RouteInterval time.Duration
	// HeartbeatInterval is how often a liveness heartbeat is recorded.
	HeartbeatInterval time.Duration
	// BufferCap bounds the local record buffer.
	BufferCap int
	// MaxBatchRecords caps records per upload batch.
	MaxBatchRecords int
	// RetryMin/RetryMax bound the exponential upload retry backoff.
	RetryMin time.Duration
	RetryMax time.Duration
	// DropNewest switches the overflow policy from drop-oldest (default,
	// keeps the most recent telemetry) to drop-newest (keeps history).
	DropNewest bool
	// DisableBuffering makes uploads fire-and-forget: records from a
	// failed batch are discarded instead of retried. Ablated in F5.
	DisableBuffering bool
	// DisablePacketCapture turns off per-packet records, leaving only
	// summaries — the low-bandwidth mode of T2/T4.
	DisablePacketCapture bool
	// Firmware is reported in heartbeats.
	Firmware string
	// Energy, when non-nil, is sampled into every NodeStats record
	// (battery fraction, voltage, harvest rate). Nil means the node has
	// no battery model and stats ship without energy fields.
	Energy EnergyProbe
	// Metrics, when non-nil, records the agent's upload health (batches,
	// retries, backoff, buffer depth) labeled by node. Share one Metrics
	// across a fleet.
	Metrics *Metrics
}

// DefaultConfig reports every 30 s, summarises stats every 60 s,
// snapshots routes every 120 s and heartbeats every 30 s.
func DefaultConfig() Config {
	return Config{
		ReportInterval:    30 * time.Second,
		StatsInterval:     60 * time.Second,
		RouteInterval:     120 * time.Second,
		HeartbeatInterval: 30 * time.Second,
		BufferCap:         2048,
		MaxBatchRecords:   256,
		RetryMin:          5 * time.Second,
		RetryMax:          5 * time.Minute,
		Firmware:          "meshmon-sim/1.0",
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ReportInterval <= 0 {
		c.ReportInterval = d.ReportInterval
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = d.StatsInterval
	}
	if c.RouteInterval <= 0 {
		c.RouteInterval = d.RouteInterval
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = d.HeartbeatInterval
	}
	if c.BufferCap <= 0 {
		c.BufferCap = d.BufferCap
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = d.MaxBatchRecords
	}
	if c.RetryMin <= 0 {
		c.RetryMin = d.RetryMin
	}
	if c.RetryMax < c.RetryMin {
		c.RetryMax = d.RetryMax
		if c.RetryMax < c.RetryMin {
			c.RetryMax = 10 * c.RetryMin
		}
	}
	if c.Firmware == "" {
		c.Firmware = d.Firmware
	}
	return c
}

// Counters tracks the agent's own health.
type Counters struct {
	PacketEvents    uint64 // LoRa packet events observed at the tap
	Captured        uint64 // records accepted into the buffer
	OverflowDropped uint64 // records evicted by the bounded buffer
	UnbufferedLost  uint64 // records discarded after a failed upload (buffering off)
	BatchesSent     uint64
	BatchesAcked    uint64
	BatchesFailed   uint64
	RecordsShipped  uint64 // records in acked batches
	BufferHighWater int
}

// Agent is one node's monitoring client.
type Agent struct {
	sim    *simkit.Sim
	router *mesh.Router
	up     uplink.Uplink
	cfg    Config

	node    wire.NodeID
	started simkit.Time
	running bool

	buf      buffer
	seqNo    uint64
	inFlight bool
	// sending is the batch in flight and sentKinds its records' kinds in
	// capture order: a failed upload puts them back as they were taken.
	sending      wire.Batch
	sentKinds    []kind
	onUpload     func(error) // uploadDone, bound once
	flushNow     func()      // flush, bound once
	backoff      time.Duration
	retry        *simkit.Timer
	retryPending bool
	tickers      []*simkit.Ticker

	counters Counters
	inst     *agentInstruments // nil when Config.Metrics is nil
}

// New builds an agent for router, shipping through up. The agent
// installs itself as the router's tap; call Start to begin reporting.
func New(sim *simkit.Sim, router *mesh.Router, up uplink.Uplink, cfg Config) *Agent {
	a := &Agent{
		sim:    sim,
		router: router,
		up:     up,
		cfg:    cfg.withDefaults(),
		node:   wire.NodeID(router.ID()),
	}
	a.onUpload, a.flushNow = a.uploadDone, a.flush
	a.retry = sim.NewTimer(a.retryFlush)
	if a.cfg.Metrics != nil {
		a.inst = a.cfg.Metrics.forNode(a.node)
	}
	router.SetTap(a.tap())
	return a
}

// Node returns the agent's node ID.
func (a *Agent) Node() wire.NodeID { return a.node }

// Config returns the effective configuration.
func (a *Agent) Config() Config { return a.cfg }

// Uplink returns the uplink the agent ships through (for accounting).
func (a *Agent) Uplink() uplink.Uplink { return a.up }

// Counters returns a snapshot of the agent's counters.
func (a *Agent) Counters() Counters { return a.counters }

// BufferLen returns the number of records waiting to be shipped.
func (a *Agent) BufferLen() int { return a.buf.len() }

// Running reports whether the agent is active.
func (a *Agent) Running() bool { return a.running }

// Start begins periodic recording and uploading.
func (a *Agent) Start() {
	if a.running {
		return
	}
	a.running = true
	a.started = a.sim.Now()
	a.backoff = 0
	// Capture an initial heartbeat so the server learns about the node
	// on the first report, then run the periodic duties.
	a.recordHeartbeat()
	a.tickers = []*simkit.Ticker{
		a.sim.Every(a.cfg.HeartbeatInterval, a.recordHeartbeat),
		a.sim.Every(a.cfg.StatsInterval, a.recordStats),
		a.sim.Every(a.cfg.RouteInterval, a.recordRoutes),
		a.sim.Every(simkit.Jitter(a.sim.Rand(), a.cfg.ReportInterval, 0.05), a.flush),
	}
}

// Stop halts reporting. Buffered records are retained for a later Start.
func (a *Agent) Stop() {
	if !a.running {
		return
	}
	a.running = false
	for _, t := range a.tickers {
		t.Stop()
	}
	a.tickers = nil
	a.retry.Stop()
	a.retryPending = false
}

// now returns seconds since the run epoch, the wire timestamp unit.
func (a *Agent) now() float64 { return a.sim.Now().Seconds() }

// --- capture side ---

func (a *Agent) tap() mesh.Tap {
	return mesh.Tap{
		PacketIn: func(p mesh.Packet, info radio.RxInfo, forUs bool) {
			if a.cfg.DisablePacketCapture || !a.running {
				return
			}
			a.counters.PacketEvents++
			r := a.packetRecord(p, wire.EventRx)
			r.RSSIdBm = math.Round(info.RSSIdBm)
			r.SNRdB = quarterDB(info.SNRdB)
			r.ForUs = forUs
			r.AirtimeMS = info.Airtime.Seconds() * 1000
			push(a, &a.buf.pkts, kindPacket, r)
		},
		PacketOut: func(p mesh.Packet, airtime time.Duration) {
			if a.cfg.DisablePacketCapture || !a.running {
				return
			}
			a.counters.PacketEvents++
			r := a.packetRecord(p, wire.EventTx)
			r.AirtimeMS = airtime.Seconds() * 1000
			push(a, &a.buf.pkts, kindPacket, r)
		},
		PacketDropped: func(p mesh.Packet, reason mesh.DropReason) {
			if a.cfg.DisablePacketCapture || !a.running {
				return
			}
			a.counters.PacketEvents++
			r := a.packetRecord(p, wire.EventDrop)
			r.Reason = string(reason)
			push(a, &a.buf.pkts, kindPacket, r)
		},
	}
}

func (a *Agent) packetRecord(p mesh.Packet, ev wire.Event) wire.PacketRecord {
	return wire.PacketRecord{
		TS:    a.now(),
		Node:  a.node,
		Event: ev,
		Type:  p.Type.String(),
		Src:   wire.NodeID(p.Src),
		Dst:   wire.NodeID(p.Dst),
		Via:   wire.NodeID(p.Via),
		Seq:   p.Seq,
		TTL:   p.TTL,
		Size:  p.Size(),
	}
}

func (a *Agent) recordHeartbeat() {
	push(a, &a.buf.hbs, kindHeartbeat, wire.Heartbeat{
		TS:       a.now(),
		Node:     a.node,
		UptimeS:  a.sim.Now().Sub(a.started).Seconds(),
		Firmware: a.cfg.Firmware,
	})
}

func (a *Agent) recordStats() {
	c := a.router.Counters()
	rc := a.router.Radio().Counters()
	lim := a.router.Radio().Limiter()
	st := wire.NodeStats{
		TS:      a.now(),
		Node:    a.node,
		UptimeS: a.sim.Now().Sub(a.started).Seconds(),

		HelloSent: c.HelloSent,
		DataSent:  c.DataSent,
		AckSent:   c.AckSent,
		Forwarded: c.Forwarded,

		HelloRecv:     c.HelloRecv,
		DataRecv:      c.DataRecv,
		AckRecv:       c.AckRecv,
		Overheard:     c.Overheard,
		Delivered:     c.Delivered,
		DupSuppressed: c.DupSuppressed,

		DropNoRoute:    c.DropNoRoute,
		DropTTL:        c.DropTTL,
		DropQueueFull:  c.DropQueueFull,
		DropAckTimeout: c.DropAckTimeout,

		RetriesSpent: c.RetriesSpent,
		SendFailures: c.SendFailures,
		RouteCount:   a.router.Table().Len(),
		QueueLen:     a.router.QueueLen(),

		AirtimeMS:      lim.TotalAirtime().Seconds() * 1000,
		DutyCycleUsed:  lim.Utilization(a.sim.Now()),
		DutyBlocked:    lim.Blocked(),
		RxMissWeak:     rc.MissWeak,
		RxMissCollided: rc.MissCollision,
	}
	if p := a.cfg.Energy; p != nil {
		st.Energy = true
		st.BatteryFrac = p.BatteryFraction()
		st.BatteryV = p.BatteryVoltageV()
		st.HarvestW = p.HarvestW()
	}
	push(a, &a.buf.stats, kindStats, st)
}

func (a *Agent) recordRoutes() {
	now := a.sim.Now()
	tab := a.router.Table()
	entries := make([]wire.RouteEntry, tab.Len())
	for i := range entries {
		r := tab.Entry(i)
		entries[i] = wire.RouteEntry{
			Dst:     wire.NodeID(r.Dst),
			NextHop: wire.NodeID(r.NextHop),
			Metric:  r.Metric,
			AgeS:    float64(now.Sub(r.LastSeen) / time.Second),
			SNRdB:   quarterDB(r.SNRdB),
		}
	}
	push(a, &a.buf.routes, kindRoute, wire.RouteSnapshot{TS: a.now(), Node: a.node, Routes: entries})
}

// quarterDB rounds an SNR to the SX127x's resolution: RegPktSnrValue
// holds the packet SNR in 0.25 dB steps. RSSI (RegPktRssiValue) is
// whole dBm and route ages whole seconds, so every link measurement an
// agent ships is what the node's firmware could have read.
func quarterDB(snr float64) float64 { return math.Round(snr*4) / 4 }

// push buffers v in its kind's ring r, applying the bounded-buffer drop
// policy.
func push[T any](a *Agent, r *ring[T], k kind, v T) {
	if !a.running {
		return
	}
	if a.buf.len() >= a.cfg.BufferCap {
		a.counters.OverflowDropped++
		if a.cfg.DropNewest {
			return // discard the incoming record
		}
		a.buf.dropOldest()
	}
	r.pushBack(v)
	a.buf.order.pushBack(k)
	a.counters.Captured++
	if n := a.buf.len(); n > a.counters.BufferHighWater {
		a.counters.BufferHighWater = n
	}
	if a.inst != nil {
		a.inst.buffer.Set(float64(a.buf.len()))
	}
}

// --- upload side ---

func (a *Agent) flush() {
	// While a retry is scheduled the periodic ticker stays quiet; only
	// the backoff timer (which clears retryPending) resumes uploads.
	if !a.running || a.inFlight || a.retryPending || a.buf.len() == 0 {
		return
	}
	n := min(a.buf.len(), a.cfg.MaxBatchRecords)
	var count [numKinds]int
	a.sentKinds = a.sentKinds[:0]
	for i := 0; i < n; i++ {
		k := a.buf.order.popFront()
		a.sentKinds = append(a.sentKinds, k)
		count[k]++
	}

	a.seqNo++
	batch := wire.Batch{
		Node:       a.node,
		SeqNo:      a.seqNo,
		SentAt:     a.now(),
		Packets:    take(&a.buf.pkts, count[kindPacket]),
		Routes:     take(&a.buf.routes, count[kindRoute]),
		Stats:      take(&a.buf.stats, count[kindStats]),
		Heartbeats: take(&a.buf.hbs, count[kindHeartbeat]),
	}
	a.inFlight = true
	a.sending = batch
	a.counters.BatchesSent++
	if a.inst != nil {
		a.inst.sent.Inc()
		a.inst.buffer.Set(float64(a.buf.len()))
	}
	a.up.Send(batch, a.onUpload)
}

func (a *Agent) uploadDone(err error) {
	batch := a.sending
	a.sending = wire.Batch{}
	a.inFlight = false
	if err == nil {
		a.counters.BatchesAcked++
		a.counters.RecordsShipped += uint64(batch.Len())
		a.backoff = 0
		if a.inst != nil {
			a.inst.acked.Inc()
			a.inst.backoff.Set(0)
		}
		// Drain any backlog promptly (post-outage recovery).
		if a.buf.len() >= a.cfg.MaxBatchRecords {
			a.sim.Do(0, a.flushNow)
		}
		return
	}
	a.counters.BatchesFailed++
	if a.inst != nil {
		a.inst.failed.Inc()
	}
	if a.cfg.DisableBuffering {
		a.counters.UnbufferedLost += uint64(len(a.sentKinds))
	} else {
		// Re-queue the failed records ahead of newer ones, re-applying
		// the buffer bound.
		a.buf.requeue(batch, a.sentKinds)
		for a.buf.len() > a.cfg.BufferCap {
			a.counters.OverflowDropped++
			if a.cfg.DropNewest {
				a.buf.dropNewest()
			} else {
				a.buf.dropOldest()
			}
		}
	}
	if a.backoff == 0 {
		a.backoff = a.cfg.RetryMin
	} else {
		a.backoff *= 2
		if a.backoff > a.cfg.RetryMax {
			a.backoff = a.cfg.RetryMax
		}
	}
	a.retryPending = true
	if a.inst != nil {
		a.inst.retries.Inc()
		a.inst.backoff.Set(a.backoff.Seconds())
		a.inst.buffer.Set(float64(a.buf.len()))
	}
	a.retry.Reset(a.backoff)
}

func (a *Agent) retryFlush() {
	a.retryPending = false
	a.flush()
}
