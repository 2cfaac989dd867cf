// Package collector implements the paper's server side: it ingests
// telemetry batches uploaded by the per-node monitoring clients,
// maintains a registry of known nodes, and materialises the records into
// the time-series store that feeds the dashboard and the analysis
// library.
//
// # Concurrency
//
// The collector is partitioned into N node-sharded slices: each mesh
// node hashes to exactly one shard, which holds only per-node state
// under its own RWMutex — that node's dedup state machine, registry
// entry with its cached tsdb append handles, and the links it receives.
// Batches from different nodes therefore ingest without contending on
// a shard. The collector-wide state lives once, outside the shards: the
// record-time high-water mark and the Stats counters are atomics, the
// recent-packet ring sits under its own mutex (taken after a shard's,
// for one append per batch), and the shared WAL appender group-commits
// concurrent shards into one fsync. Nodes and Links merge the shards
// under sequential read locks, each shard contributing one sorted run
// to a k-way merge (tsdb.MergeRuns), so their output is deterministic
// but not a single point-in-time cut; Recent and Stats take no shard
// lock. Snapshot paths that need a consistent cut across every shard
// briefly stop the world (see persist.go).
//
// # Metric schema
//
// Packet events:
//
//	mesh_packets{node,event,type}   1 per packet event (count with sum)
//	mesh_packet_bytes{node,event}   frame size per event
//	mesh_packet_rssi{node}          RSSI of received frames (dBm)
//	mesh_packet_snr{node}           SNR of received frames (dB)
//	mesh_airtime_ms{node}           time on air per transmitted frame
//	mesh_drops{node,reason}         1 per drop event
//
// Node summaries (appended at the stats record's timestamp):
//
//	node_hello_sent / node_data_sent / node_ack_sent / node_forwarded
//	node_hello_recv / node_data_recv / node_ack_recv / node_overheard
//	node_delivered / node_dup_suppressed
//	node_drop_no_route / node_drop_ttl / node_drop_queue_full /
//	node_drop_ack_timeout
//	node_retries / node_send_failures
//	node_route_count / node_queue_len
//	node_airtime_ms / node_duty_cycle / node_duty_blocked
//	node_uptime (from heartbeats)
//
// Routing (see routes.go):
//
//	mesh_route_changes{node}        route changes shown by each route
//	                                snapshot (0 for the first one held)
package collector

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// Config tunes the collector.
type Config struct {
	// RecentPackets bounds the ring buffer of recent packet records kept
	// for the dashboard's live-traffic view.
	RecentPackets int
	// Shards is the number of node-partitioned ingest shards; zero means
	// one per GOMAXPROCS. Shard count is a runtime choice only — it never
	// leaks into snapshots, so a log written with one count recovers
	// under another.
	Shards int
	// Retention drops raw samples older than this many seconds behind
	// the newest ingested timestamp; zero disables pruning.
	RetentionS float64
	// Retain1mS / Retain1hS enable the store's rollup tiers: telemetry
	// is additionally downsampled into 1-minute and 1-hour buckets kept
	// for these horizons (zero with the other tier set keeps that tier
	// forever). With either set, RetentionS becomes the raw tier's
	// horizon and coarse queries over evicted raw history are answered
	// from the rollups.
	Retain1mS float64
	Retain1hS float64
	// OnIngest, when set, is invoked (outside the collector's lock) for
	// every successfully ingested batch — the hook for exporters and
	// recorders.
	OnIngest func(wire.Batch)
	// Metrics is the self-observability registry the collector's ingest
	// and HTTP instruments register into. Nil gets a private registry, so
	// instrumentation is always live; pass a shared registry to co-expose
	// tsdb/alert/uplink families on the same /metrics endpoint. A
	// registry must back at most one collector (family names would clash).
	Metrics *metrics.Registry
	// WAL, when set, makes accepted batches durable: every batch that
	// passes dedup is appended to the log before any in-memory state
	// changes, so acknowledgement implies the batch survives a crash
	// (subject to the log's fsync policy). Recover replays it on boot.
	WAL *wal.Log
}

// tiered reports whether rollup tiers are configured.
func (cfg Config) tiered() bool { return cfg.Retain1mS > 0 || cfg.Retain1hS > 0 }

// DefaultConfig keeps the last 1000 packet records and all samples.
func DefaultConfig() Config {
	return Config{RecentPackets: 1000}
}

// NodeInfo is the registry's view of one mesh node.
type NodeInfo struct {
	ID          wire.NodeID
	FirstSeenTS float64 // SentAt of the first batch
	LastSeenTS  float64 // SentAt of the newest batch
	LastBeatTS  float64 // timestamp of the newest heartbeat record
	UptimeS     float64 // from the newest heartbeat
	Firmware    string

	BatchesOK   uint64
	BatchesLost uint64 // upload-sequence gaps, net of late arrivals
	BatchesDup  uint64
	BatchesLate uint64 // out-of-order arrivals that filled an earlier gap
	Records     uint64

	LastStats  *wire.NodeStats
	LastRoutes *wire.RouteSnapshot
	// RouteHistory holds the newest route changes, newest first, at most
	// routeHistoryLen of them. It is replaced, never written in place.
	RouteHistory []RouteChange `json:",omitempty"`
}

// Stats summarises collector-wide activity.
type Stats struct {
	BatchesIngested uint64
	BatchesRejected uint64
	RecordsIngested uint64
	NodesKnown      int
	// LinksKnown counts distinct observed (tx, rx) links — the length
	// of Links(0) without materialising it.
	LinksKnown int
}

type nodeState struct {
	info    NodeInfo
	lastSeq uint64
	seen    bool
	// missing tracks sequence numbers counted into BatchesLost whose
	// batch could still arrive late (uplink reordering): a batch with
	// SeqNo < lastSeq found here is accepted and the loss reconciled,
	// anything else below lastSeq is a true duplicate. Bounded by
	// maxMissingTracked; overflow evicts the oldest gaps, whose late
	// arrivals then count as duplicates (they stay counted lost).
	missing map[uint64]struct{}
	// series caches the node's packet-metric append handles (handleFor).
	series map[seriesKey]*tsdb.Series
	// stats holds cached append handles for the node's summary metrics,
	// aligned with statsMetricNames; uptime is the heartbeat series.
	stats  []*tsdb.Series
	uptime *tsdb.Series
	// energy holds append handles for the battery series, aligned with
	// energyMetricNames; created lazily on the first stats record that
	// carries energy fields, so mains-powered fleets pay nothing.
	energy []*tsdb.Series
	// table is info.LastRoutes.Routes in canonical form (sorted by
	// destination, one entry each), aliasing it when it already is;
	// routeChanges is the mesh_route_changes handle.
	table        []wire.RouteEntry
	routeChanges *tsdb.Series
}

// maxMissingTracked bounds the per-node late-reorder window.
const maxMissingTracked = 1024

// addMissing records the gap [from, to] as lost-but-maybe-late,
// keeping only the newest maxMissingTracked entries.
func (st *nodeState) addMissing(from, to uint64) {
	if st.missing == nil {
		st.missing = make(map[uint64]struct{})
	}
	if to-from+1 >= maxMissingTracked {
		clear(st.missing)
		from = to - maxMissingTracked + 1
	}
	for s := to; ; s-- {
		if len(st.missing) >= maxMissingTracked {
			st.evictOldestMissing()
		}
		st.missing[s] = struct{}{}
		if s == from {
			return
		}
	}
}

// evictOldestMissing drops the smallest tracked sequence number — the
// gap least likely to still arrive.
func (st *nodeState) evictOldestMissing() {
	oldest, first := uint64(0), true
	for s := range st.missing {
		if first || s < oldest {
			oldest, first = s, false
		}
	}
	if !first {
		delete(st.missing, oldest)
	}
}

// statsMetricNames lists the node summary metrics in the fixed order
// statsValues fills; the two stay aligned.
var statsMetricNames = []string{
	"node_hello_sent", "node_data_sent", "node_ack_sent", "node_forwarded",
	"node_hello_recv", "node_data_recv", "node_ack_recv", "node_overheard",
	"node_delivered", "node_dup_suppressed",
	"node_drop_no_route", "node_drop_ttl", "node_drop_queue_full", "node_drop_ack_timeout",
	"node_retries", "node_send_failures",
	"node_route_count", "node_queue_len",
	"node_airtime_ms", "node_duty_cycle", "node_duty_blocked",
}

// statsValues extracts the summary values in statsMetricNames order.
func statsValues(s *wire.NodeStats) [21]float64 {
	return [21]float64{
		float64(s.HelloSent), float64(s.DataSent), float64(s.AckSent), float64(s.Forwarded),
		float64(s.HelloRecv), float64(s.DataRecv), float64(s.AckRecv), float64(s.Overheard),
		float64(s.Delivered), float64(s.DupSuppressed),
		float64(s.DropNoRoute), float64(s.DropTTL), float64(s.DropQueueFull), float64(s.DropAckTimeout),
		float64(s.RetriesSpent), float64(s.SendFailures),
		float64(s.RouteCount), float64(s.QueueLen),
		s.AirtimeMS, s.DutyCycleUsed, float64(s.DutyBlocked),
	}
}

// energyMetricNames lists the battery telemetry series, aligned with
// energyValues. They are kept out of statsMetricNames so the fixed
// 21-metric summary schema (and every chart built on it) is untouched
// by nodes that do not report energy.
var energyMetricNames = []string{
	"node_battery_frac", "node_battery_v", "node_harvest_w",
}

// energyValues extracts the battery values in energyMetricNames order.
func energyValues(s *wire.NodeStats) [3]float64 {
	return [3]float64{s.BatteryFrac, s.BatteryV, s.HarvestW}
}

// seriesKey identifies one of a node's cached tsdb append handles. The
// per-metric label schema is reconstructed from the key on a cache miss,
// so the hot ingest path allocates no Labels map and computes no
// canonical key.
type seriesKey struct {
	metric string
	a, b   string // event/type/reason depending on metric
}

// LinkObs aggregates the direct radio link tx→rx as observed from
// received single-hop HELLO broadcasts (whose reporter always heard the
// original transmitter directly).
type LinkObs struct {
	Tx, Rx   wire.NodeID
	Count    uint64
	FirstTS  float64
	LastTS   float64
	LastRSSI float64
	LastSNR  float64
	MeanRSSI float64
	MeanSNR  float64
}

// instruments are the collector's self-observability handles, resolved
// once at construction so the ingest hot path records through cached
// pointers (a few atomic adds per batch, no map lookups).
type instruments struct {
	batchesOK       *metrics.Counter
	batchesRejected *metrics.Counter
	batchesDup      *metrics.Counter
	records         *metrics.Counter
	bytes           *metrics.Counter
	latency         *metrics.Histogram
	httpRequests    *metrics.CounterVec   // route, code
	httpLatency     *metrics.HistogramVec // route
}

func newInstruments(reg *metrics.Registry) *instruments {
	batches := reg.NewCounterVec("meshmon_ingest_batches_total",
		"Telemetry batches by ingest outcome.", "result")
	return &instruments{
		batchesOK:       batches.With("ok"),
		batchesRejected: batches.With("rejected"),
		batchesDup:      batches.With("dup"),
		records: reg.NewCounter("meshmon_ingest_records_total",
			"Telemetry records materialised into the store."),
		bytes: reg.NewCounter("meshmon_ingest_bytes_total",
			"Request body bytes accepted by the HTTP ingest endpoint."),
		latency: reg.NewHistogram("meshmon_ingest_latency_seconds",
			"Wall-clock latency of ingesting one batch into the store.", nil),
		httpRequests: reg.NewCounterVec("meshmon_http_requests_total",
			"API requests by route and status code.", "route", "code"),
		httpLatency: reg.NewHistogramVec("meshmon_http_request_seconds",
			"API request handling latency by route.", nil, "route"),
	}
}

// shard holds the state of the nodes that hash to it: their nodeStates
// and the links they receive. It is guarded by the shard's own lock, so
// ingest for different nodes never serialises.
type shard struct {
	c *Collector

	mu    sync.RWMutex
	nodes map[wire.NodeID]*nodeState
	// links and fresh hold the links this shard's nodes receive, each
	// sorted by (tx, rx), with no key twice across both, so every read
	// hands MergeLinks two ready runs. A new link is inserted into
	// fresh, which is merged into links once it holds freshLinks
	// entries: an insert shifts at most freshLinks entries, and links is
	// rewritten once per freshLinks new links rather than shifted by
	// each.
	links, fresh []LinkObs
	// changes is ingestRoutes' reusable diff buffer.
	changes []RouteChange
}

// Collector is the monitoring server core. It is safe for concurrent
// use; the HTTP ingest path calls it from request goroutines, and
// batches from distinct nodes land on distinct shards in parallel.
type Collector struct {
	cfg    Config
	db     *tsdb.DB
	reg    *metrics.Registry
	inst   *instruments
	shards []*shard
	// maxTS holds math.Float64bits of the newest record timestamp — the
	// one piece of ingest state every shard touches, kept lock-free so
	// shards never take each other's locks.
	maxTS atomic.Uint64
	// recent is the ring buffer of the newest packet records, in ingest
	// order; recentHead is the index of the oldest entry once it is full.
	// A batch appends its packets while still holding its shard lock
	// (lock order: shard mu, then recentMu), so a cut under every shard
	// lock holds all of a batch's packets or none.
	recentMu   sync.Mutex
	recent     []wire.PacketRecord
	recentHead int
	// The Stats counters. Ingest bumps them under the shard lock and
	// before the epoch advance, so a reader at epoch E counts every batch
	// in E; the node and link counts rise as entries are inserted.
	batchesIngested, batchesRejected, recordsIngested atomic.Uint64
	nodesKnown, linksKnown                            atomic.Int64
	// epoch counts accepted batches — the read path's invalidation clock.
	// It is bumped after all of a batch's state mutation completes, so a
	// reader that observes epoch E sees every batch counted into E.
	epoch atomic.Uint64
	// restores counts RestoreSnapshot calls — the only event that can
	// shrink or replace the node registry and link table.
	restores atomic.Uint64
	// notify is woken on every epoch advance: it closes the Changed
	// channel a waiter took and calls the subscribed fan-in views.
	notify Broadcast
}

// New builds a collector writing into db.
func New(db *tsdb.DB, cfg Config) *Collector {
	if cfg.RecentPackets <= 0 {
		cfg.RecentPackets = DefaultConfig().RecentPackets
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.tiered() {
		db.ConfigureTiers(tsdb.Retention{
			RawS:      cfg.RetentionS,
			Rollup1mS: cfg.Retain1mS,
			Rollup1hS: cfg.Retain1hS,
		})
	}
	c := &Collector{
		cfg:    cfg,
		db:     db,
		reg:    reg,
		inst:   newInstruments(reg),
		shards: make([]*shard, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			c:     c,
			nodes: make(map[wire.NodeID]*nodeState),
		}
	}
	return c
}

// shardFor maps a node to its owning shard. The multiplicative hash
// spreads the typically small, sequential NodeID space evenly.
func (c *Collector) shardFor(id wire.NodeID) *shard {
	h := uint32(id) * 0x9E3779B1
	return c.shards[int(h>>16)%len(c.shards)]
}

// ShardCount reports how many ingest shards the collector runs.
func (c *Collector) ShardCount() int { return len(c.shards) }

// lockAll write-locks every shard in index order (the canonical order,
// so concurrent stop-the-world callers cannot deadlock); unlockAll
// releases in reverse.
func (c *Collector) lockAll() {
	for _, s := range c.shards {
		s.mu.Lock()
	}
}

func (c *Collector) unlockAll() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// Metrics returns the collector's self-observability registry (the one
// from Config.Metrics, or the private default).
func (c *Collector) Metrics() *metrics.Registry { return c.reg }

// handleFor returns the node's cached append handle for key, building
// the metric's label set only on the first miss. Callers hold the
// owning shard's lock.
func (st *nodeState) handleFor(db *tsdb.DB, key seriesKey) *tsdb.Series {
	if h, ok := st.series[key]; ok {
		return h
	}
	if st.series == nil {
		st.series = make(map[seriesKey]*tsdb.Series)
	}
	labels := tsdb.Labels{"node": st.info.ID.String()}
	switch key.metric {
	case "mesh_packets":
		labels["event"], labels["type"] = key.a, key.b
	case "mesh_packet_bytes":
		labels["event"] = key.a
	case "mesh_airtime_ms":
		labels["type"] = key.a
	case "mesh_drops":
		labels["reason"] = key.a
	}
	h := db.Series(key.metric, labels)
	st.series[key] = h
	return h
}

// DB exposes the read side of the underlying time-series store
// (dashboard, analysis). The concrete store stays reachable through
// TSDB for owners that also write or persist it.
func (c *Collector) DB() tsdb.Querier { return c.db }

// TSDB returns the concrete backing store — the write/persist side
// that only the collector's owner (tests, snapshot tooling) needs.
func (c *Collector) TSDB() *tsdb.DB { return c.db }

// Stats returns the collector-wide counters. It takes no lock; while
// ingest runs the counters are read one by one, not as a single cut.
func (c *Collector) Stats() Stats {
	return Stats{
		BatchesIngested: c.batchesIngested.Load(),
		BatchesRejected: c.batchesRejected.Load(),
		RecordsIngested: c.recordsIngested.Load(),
		NodesKnown:      int(c.nodesKnown.Load()),
		LinksKnown:      int(c.linksKnown.Load()),
	}
}

// Nodes returns the registry merged across shards, sorted by node ID.
// Each shard's run is copied in the order of its sorted IDs, so the
// sort moves two-byte keys, not whole entries.
func (c *Collector) Nodes() []NodeInfo {
	runs := make([][]NodeInfo, len(c.shards))
	var ids []wire.NodeID
	for i, s := range c.shards {
		s.mu.RLock()
		ids = slices.Grow(ids[:0], len(s.nodes))
		for id := range s.nodes {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		run := make([]NodeInfo, len(ids))
		for k, id := range ids {
			run[k] = s.nodes[id].info
		}
		s.mu.RUnlock()
		runs[i] = run
	}
	return MergeNodes(runs)
}

// Node returns the registry entry for id.
func (c *Collector) Node(id wire.NodeID) (NodeInfo, bool) {
	s := c.shardFor(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return NodeInfo{}, false
	}
	return n.info, true
}

// Recent returns up to limit of the newest packet records, newest
// first (limit <= 0 means the whole ring), walked back from the ring
// head.
func (c *Collector) Recent(limit int) []wire.PacketRecord {
	c.recentMu.Lock()
	defer c.recentMu.Unlock()
	n := len(c.recent)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]wire.PacketRecord, n)
	i := c.recentHead
	for k := range out {
		if i == 0 {
			i = len(c.recent)
		}
		i--
		out[k] = c.recent[i]
	}
	return out
}

// addRecent appends one batch's packets to the ring, overwriting the
// oldest entries once it is full — no per-packet reallocation. Callers
// hold the batch's shard lock.
func (c *Collector) addRecent(ps []wire.PacketRecord) {
	if len(ps) == 0 {
		return
	}
	c.recentMu.Lock()
	for _, p := range ps {
		if len(c.recent) < c.cfg.RecentPackets {
			c.recent = append(c.recent, p)
			continue
		}
		c.recent[c.recentHead] = p
		c.recentHead = (c.recentHead + 1) % len(c.recent)
	}
	c.recentMu.Unlock()
}

// MaxTS returns the newest record timestamp seen, the collector's notion
// of "now" in record time.
func (c *Collector) MaxTS() float64 {
	return math.Float64frombits(c.maxTS.Load())
}

// bump raises the record-time high-water mark with a CAS loop; shards
// call it concurrently without holding each other's locks. A NaN, which
// only a batch logged before ingest refused it can carry, is ignored.
func (c *Collector) bump(ts float64) {
	for {
		old := c.maxTS.Load()
		if ts != ts || ts <= math.Float64frombits(old) {
			return
		}
		if c.maxTS.CompareAndSwap(old, math.Float64bits(ts)) {
			return
		}
	}
}

// setMaxTS forces the high-water mark (snapshot restore only).
func (c *Collector) setMaxTS(ts float64) {
	c.maxTS.Store(math.Float64bits(ts))
}

// Epoch returns the ingest epoch: a counter that advances once per
// accepted batch, after that batch's state mutation completes. Two
// reads at the same epoch with no ingest in between observe identical
// collector state, which is what the read cache keys on.
func (c *Collector) Epoch() uint64 { return c.epoch.Load() }

// Restores returns how many times RestoreSnapshot has replaced the
// collector's state. Between two equal readings the node registry and
// link table only grow.
func (c *Collector) Restores() uint64 { return c.restores.Load() }

// Changed returns a channel closed on the next epoch advance. Callers
// re-arm by calling Changed again after a wake-up; the channel is
// shared by all waiters, so a thousand SSE clients cost one close.
func (c *Collector) Changed() <-chan struct{} { return c.notify.Changed() }

// Subscribe registers wake to run after every epoch advance, on the
// ingesting goroutine (see Broadcast.Subscribe). A federated view
// subscribes to each member this way.
func (c *Collector) Subscribe(wake func()) { c.notify.Subscribe(wake) }

// bumpEpoch advances the ingest epoch and wakes every Changed waiter
// and subscriber. Called after the shard lock is released, so waiters
// that wake and read see the full batch.
func (c *Collector) bumpEpoch() {
	c.epoch.Add(1)
	c.notify.Wake()
}

// ErrDurability wraps write-ahead-log failures on the ingest path, so
// the HTTP layer can answer 503 (retry me) instead of 400 (bad batch).
var ErrDurability = errors.New("collector: durability failure")

// Ingest implements uplink.Sink: it validates and stores one batch.
// With a WAL configured, a nil return means the batch is as durable as
// the log's fsync policy promises. Validate guarantees every record in
// the batch belongs to b.Node, so the whole batch lands on one shard.
func (c *Collector) Ingest(b wire.Batch) error {
	start := time.Now()
	if err := b.Validate(); err != nil {
		c.batchesRejected.Add(1)
		c.inst.batchesRejected.Inc()
		return fmt.Errorf("collector: %w", err)
	}
	stored, err := c.shardFor(b.Node).ingest(b, true)
	if err != nil {
		return err
	}
	if !stored {
		c.inst.batchesDup.Inc()
		return nil
	}
	c.bumpEpoch()
	c.inst.batchesOK.Inc()
	c.inst.records.Add(float64(b.Len()))
	c.inst.latency.Observe(time.Since(start).Seconds())
	if c.cfg.OnIngest != nil {
		c.cfg.OnIngest(b)
	}
	return nil
}

// ingest routes one validated batch to its owning shard (test seam; the
// recovery replay path also funnels through here with persist=false).
func (c *Collector) ingest(b wire.Batch, persist bool) (bool, error) {
	stored, err := c.shardFor(b.Node).ingest(b, persist)
	if stored {
		c.bumpEpoch()
	}
	return stored, err
}

// addIngestBytes credits accepted HTTP ingest payload bytes (the HTTP
// layer knows the request size; direct in-process ingest has none).
func (c *Collector) addIngestBytes(n int) {
	c.inst.bytes.Add(float64(n))
}

// dedupAction classifies a batch against the node's sequence state.
type dedupAction int

const (
	actFirst   dedupAction = iota // first batch ever seen from the node
	actInOrder                    // lastSeq+1, the common case
	actGap                        // jumped ahead; intervening batches lost
	actRestart                    // SeqNo 1 after a higher lastSeq: agent reset
	actLate                       // fills a tracked gap; reconcile the loss
	actDup                        // already ingested; drop
)

// classify runs the dedup state machine without mutating anything, so
// the WAL append can sit between the decision and the state change.
//
// The two subtle branches, pinned by TestDedupStateMachine:
//   - SeqNo 1 is an agent restart only when lastSeq != 1; a retransmitted
//     first batch (lastSeq == 1) is a duplicate, not a restart — treating
//     it as a restart double-ingested its records.
//   - SeqNo < lastSeq is a late arrival (accept, un-count the loss) when
//     the gap is still tracked in st.missing, and a duplicate otherwise.
func (st *nodeState) classify(seqNo uint64) dedupAction {
	switch {
	case !st.seen:
		return actFirst
	case seqNo == st.lastSeq+1:
		return actInOrder
	case seqNo > st.lastSeq+1:
		return actGap
	case seqNo == 1 && st.lastSeq != 1:
		return actRestart
	default:
		if _, ok := st.missing[seqNo]; ok {
			return actLate
		}
		return actDup
	}
}

// ingest stores the batch under the shard lock and reports whether it
// was accepted (false for duplicates). With persist set and a WAL
// configured, the batch is appended to the log after the dedup decision
// and before any state mutation — a WAL failure leaves the collector
// exactly as if the batch never arrived (an unknown node is classified
// against a fresh state and registered only once its batch is
// accepted), so the client's retry replays cleanly. The WAL append
// happens with only this shard locked; other shards keep ingesting and
// their concurrent appends group-commit into a shared fsync.
func (s *shard) ingest(b wire.Batch, persist bool) (bool, error) {
	c := s.c
	s.mu.Lock()
	defer s.mu.Unlock()

	st, known := s.nodes[b.Node]
	if !known {
		st = &nodeState{info: NodeInfo{ID: b.Node, FirstSeenTS: b.SentAt}}
	}
	act := st.classify(b.SeqNo)
	if act == actDup {
		st.info.BatchesDup++
		return false, nil
	}
	if persist && c.cfg.WAL != nil {
		if err := c.cfg.WAL.Append(b); err != nil {
			return false, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	if !known {
		s.nodes[b.Node] = st
		c.nodesKnown.Add(1)
	}
	switch act {
	case actFirst:
		st.seen = true
	case actGap:
		st.info.BatchesLost += b.SeqNo - st.lastSeq - 1
		st.addMissing(st.lastSeq+1, b.SeqNo-1)
	case actRestart:
		// The agent's sequence space reset; tracked gaps from the old
		// space can never be told apart from new numbers.
		clear(st.missing)
	case actLate:
		delete(st.missing, b.SeqNo)
		st.info.BatchesLost--
		st.info.BatchesLate++
	}
	if act != actLate {
		st.lastSeq = b.SeqNo
	}
	st.info.BatchesOK++
	st.info.Records += uint64(b.Len())
	if b.SentAt > st.info.LastSeenTS {
		st.info.LastSeenTS = b.SentAt
	}
	c.batchesIngested.Add(1)
	c.recordsIngested.Add(uint64(b.Len()))

	for _, p := range b.Packets {
		s.ingestPacket(st, p)
	}
	c.addRecent(b.Packets)
	for _, r := range b.Routes {
		s.ingestRoutes(st, r)
	}
	for _, st2 := range b.Stats {
		s.ingestStats(st, st2)
	}
	for _, h := range b.Heartbeats {
		s.ingestHeartbeat(st, h)
	}
	// Retention runs after every batch; the store walks its series only
	// when a cutoff has passed its oldest data.
	if maxTS := c.MaxTS(); c.cfg.tiered() {
		c.db.Retain(maxTS)
	} else if c.cfg.RetentionS > 0 && maxTS > c.cfg.RetentionS {
		c.db.Prune(maxTS - c.cfg.RetentionS)
	}
	return true, nil
}

func (s *shard) ingestPacket(st *nodeState, p wire.PacketRecord) {
	c := s.c
	c.bump(p.TS)
	ev := string(p.Event)
	st.handleFor(c.db, seriesKey{metric: "mesh_packets", a: ev, b: p.Type}).Append(p.TS, 1)
	st.handleFor(c.db, seriesKey{metric: "mesh_packet_bytes", a: ev}).Append(p.TS, float64(p.Size))
	switch p.Event {
	case wire.EventRx:
		st.handleFor(c.db, seriesKey{metric: "mesh_packet_rssi"}).Append(p.TS, p.RSSIdBm)
		st.handleFor(c.db, seriesKey{metric: "mesh_packet_snr"}).Append(p.TS, p.SNRdB)
	case wire.EventTx:
		st.handleFor(c.db, seriesKey{metric: "mesh_airtime_ms", a: p.Type}).Append(p.TS, p.AirtimeMS)
	case wire.EventDrop:
		st.handleFor(c.db, seriesKey{metric: "mesh_drops", a: p.Reason}).Append(p.TS, 1)
	}
	// Received HELLOs are single-hop by construction, so src really is
	// the link-layer transmitter: aggregate the direct link src→node.
	// The link is keyed by its receiver (p.Node == the batch's node), so
	// a link lives on exactly one shard — the receiving node's.
	if p.Event == wire.EventRx && p.Type == "HELLO" && p.Src != p.Node {
		s.observeLink(&p)
	}
}

// freshLinks bounds a shard's fresh links. A new link costs a shift of
// up to freshLinks entries plus 1/freshLinks of a merge over the
// shard's n links, which is least for freshLinks near sqrt(2n); n is
// ~5 500 per shard in the 500-node mesh_sim benchmark at two shards
// after warm-up.
const freshLinks = 128

// observeLink folds a received HELLO into its link, creating the link
// in fresh when it is new. Callers hold s.mu.
func (s *shard) observeLink(p *wire.PacketRecord) {
	var l *LinkObs
	if i, ok := SearchLinks(s.links, p.Src, p.Node); ok {
		l = &s.links[i]
	} else if i, ok := SearchLinks(s.fresh, p.Src, p.Node); ok {
		l = &s.fresh[i]
	} else {
		if len(s.fresh) == freshLinks {
			s.mergeFresh()
			i = 0
		}
		s.fresh = slices.Insert(s.fresh, i, LinkObs{Tx: p.Src, Rx: p.Node, FirstTS: p.TS})
		s.c.linksKnown.Add(1)
		l = &s.fresh[i]
	}
	l.Count++
	l.LastTS = p.TS
	l.LastRSSI = p.RSSIdBm
	l.LastSNR = p.SNRdB
	// Incremental means.
	l.MeanRSSI += (p.RSSIdBm - l.MeanRSSI) / float64(l.Count)
	l.MeanSNR += (p.SNRdB - l.MeanSNR) / float64(l.Count)
}

// mergeFresh merges fresh into links in place, from the back, and
// empties fresh. Callers hold s.mu.
func (s *shard) mergeFresh() {
	n, m := len(s.links), len(s.fresh)
	s.links = slices.Grow(s.links, m)[:n+m]
	for i, j, k := n-1, m-1, n+m-1; j >= 0; k-- {
		if i >= 0 && cmpLink(&s.links[i], &s.fresh[j]) > 0 {
			s.links[k] = s.links[i]
			i--
		} else {
			s.links[k] = s.fresh[j]
			j--
		}
	}
	s.fresh = s.fresh[:0]
}

// Links returns every observed direct link merged across shards, sorted
// by (tx, rx). With from > 0, only links heard at or after that
// timestamp are included.
func (c *Collector) Links(from float64) []LinkObs {
	runs := make([][]LinkObs, 0, 2*len(c.shards))
	for _, s := range c.shards {
		s.mu.RLock()
		runs = append(runs, heardSince(s.links, from), heardSince(s.fresh, from))
		s.mu.RUnlock()
	}
	return MergeLinks(runs)
}

// heardSince copies the links last heard at or after from.
func heardSince(links []LinkObs, from float64) []LinkObs {
	run := make([]LinkObs, 0, len(links))
	for _, l := range links {
		if l.LastTS >= from {
			run = append(run, l)
		}
	}
	return run
}

func (s *shard) ingestStats(st *nodeState, v wire.NodeStats) {
	s.c.bump(v.TS)
	if st.info.LastStats == nil || v.TS >= st.info.LastStats.TS {
		st.info.LastStats = &v
	}
	if st.stats == nil {
		labels := tsdb.Labels{"node": v.Node.String()}
		st.stats = make([]*tsdb.Series, len(statsMetricNames))
		for i, name := range statsMetricNames {
			st.stats[i] = s.c.db.Series(name, labels)
		}
	}
	vals := statsValues(&v)
	for i, h := range st.stats {
		h.Append(v.TS, vals[i])
	}
	if v.Energy {
		if st.energy == nil {
			labels := tsdb.Labels{"node": v.Node.String()}
			st.energy = make([]*tsdb.Series, len(energyMetricNames))
			for i, name := range energyMetricNames {
				st.energy[i] = s.c.db.Series(name, labels)
			}
		}
		evals := energyValues(&v)
		for i, h := range st.energy {
			h.Append(v.TS, evals[i])
		}
	}
}

func (s *shard) ingestHeartbeat(st *nodeState, h wire.Heartbeat) {
	s.c.bump(h.TS)
	if h.TS >= st.info.LastBeatTS {
		st.info.LastBeatTS = h.TS
		st.info.UptimeS = h.UptimeS
		if h.Firmware != "" {
			st.info.Firmware = h.Firmware
		}
	}
	if st.uptime == nil {
		st.uptime = s.c.db.Series("node_uptime", tsdb.Labels{"node": h.Node.String()})
	}
	st.uptime.Append(h.TS, h.UptimeS)
}

// ParseNodeID parses the canonical "N0001" form (or bare hex/decimal).
func ParseNodeID(s string) (wire.NodeID, error) {
	if len(s) == 5 && (s[0] == 'N' || s[0] == 'n') {
		v, err := strconv.ParseUint(s[1:], 16, 16)
		if err != nil {
			return 0, fmt.Errorf("collector: bad node id %q: %w", s, err)
		}
		return wire.NodeID(v), nil
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("collector: bad node id %q: %w", s, err)
	}
	return wire.NodeID(v), nil
}
