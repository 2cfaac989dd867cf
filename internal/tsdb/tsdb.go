// Package tsdb is a small in-memory time-series store, the stdlib-only
// stand-in for the InfluxDB instance behind the paper's dashboard. It
// supports labelled series, range queries with label matching,
// aggregation, downsampling, tiered retention and compressed storage —
// everything the dashboard and the analysis library need.
//
// Storage follows the Gorilla design: samples are compressed as they
// arrive (delta-of-delta timestamps, XOR values — see chunk.go) into
// each series' open head chunk, which is sealed into an immutable chunk
// once it holds sealEvery samples. Samples that arrive behind the
// head's newest one wait in a small bounded buffer and are merged into
// the head in time order (see rawHead). Readers take a view of the head
// that shares its written bytes, so the read path snapshots a series
// under its lock without copying anything and decodes entirely outside
// it. Optional rollup tiers (1-minute and 1-hour buckets of
// count/sum/min/max/last) are maintained on the ingest path and let
// range queries pick the coarsest tier that satisfies the requested
// resolution and retention window (see tiers.go).
//
// The store is safe for concurrent use and locks at series granularity:
// the index (per metric, its series in label order and their postings;
// see index.go) is guarded by one RWMutex, while each series carries
// its own mutex around its blocks. Appends to distinct series therefore
// never contend — which is what lets the collector's node-sharded
// ingest path scale instead of serialising every shard on one
// store-wide write lock. Reads are
// per-series atomic; a cut that is consistent across series comes from
// the caller holding its own write exclusion (the collector's snapshot
// path stops ingest on all shards before calling Dump).
package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lorameshmon/internal/metrics"
)

// Point is one sample.
type Point struct {
	TS    float64 // seconds since the deployment epoch
	Value float64
}

// Labels identify a series within a metric, e.g. {"node": "N0001"}.
type Labels map[string]string

// canonical renders labels in sorted key order for use as a map key.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(l[k])
	}
	return sb.String()
}

// labelPair is one stored label.
type labelPair struct{ name, value string }

// compactLabels converts l to the stored form: pairs sorted by name,
// nil for nil labels and non-nil but empty for an empty set, so the
// JSON null/{} distinction survives a round trip through the store.
func compactLabels(l Labels) []labelPair {
	if l == nil {
		return nil
	}
	pairs := make([]labelPair, 0, len(l))
	for k, v := range l {
		pairs = append(pairs, labelPair{k, v})
	}
	slices.SortFunc(pairs, func(a, b labelPair) int { return strings.Compare(a.name, b.name) })
	return pairs
}

// exportLabels builds a caller-owned map from stored pairs — labels are
// materialised as maps only where they leave the package.
func exportLabels(pairs []labelPair) Labels {
	if pairs == nil {
		return nil
	}
	out := make(Labels, len(pairs))
	for _, p := range pairs {
		out[p.name] = p.value
	}
	return out
}

// String renders labels like {a=1,b=2}.
func (l Labels) String() string { return "{" + l.canonical() + "}" }

// defaultSealEvery is the head size at which a series seals its open
// chunk: large enough that chunk overheads amortise, small enough that
// merging a late point into the head stays cheap.
const defaultSealEvery = 512

// chunkKind is what the sealed chunks of one kind of tier share across
// the store: the value columns per sample (1 raw, rollupCols rollup)
// and the compressed bytes and samples they hold. Open head chunks are
// counted by DB.headBytes instead.
type chunkKind struct {
	cols           int
	bytes, samples atomic.Int64
}

// chunkList is one tier's sealed, immutable chunks of one series, in
// seal order — the one implementation of sealing, eviction, counting
// and snapshot attach behind the raw tier and every rollup tier.
// Snapshots share the chunks slice with lock-free readers, so it is
// only appended to or replaced, never rewritten in place. Guarded by
// the owning series' mutex.
type chunkList struct {
	chunks []*Chunk
	// overlap marks that out-of-order appends produced chunks whose time
	// ranges overlap; readers then merge-sort instead of concatenating.
	overlap bool
}

// add appends a sealed chunk of kind k.
func (l *chunkList) add(k *chunkKind, c *Chunk) {
	if n := len(l.chunks); n > 0 && c.MinTS < l.chunks[n-1].MaxTS {
		l.overlap = true
	}
	l.chunks = append(l.chunks, c)
	k.bytes.Add(int64(len(c.Data)))
	k.samples.Add(int64(c.Count))
}

// seal closes the open chunk enc into a chunk of kind k and resets enc
// to an empty stream, timing it when the store is instrumented.
func (l *chunkList) seal(db *DB, k *chunkKind, enc *Encoder) {
	var start time.Time
	inst := db.inst.Load()
	if inst != nil {
		start = time.Now()
	}
	l.add(k, enc.Chunk())
	enc.Reset(k.cols)
	if inst != nil {
		inst.sealDuration.Observe(time.Since(start).Seconds())
	}
}

// attach adds a chunk read from a snapshot, refusing one whose column
// count is not k's.
func (l *chunkList) attach(k *chunkKind, c Chunk) error {
	if c.Cols != k.cols {
		return fmt.Errorf("chunk with %d columns, want %d", c.Cols, k.cols)
	}
	l.add(k, &c)
	return nil
}

// prune drops exactly the samples with TS < before: chunks wholly below
// the cutoff go whole, a straddling chunk is decoded, filtered and
// re-encoded. It returns how many samples it dropped.
func (l *chunkList) prune(k *chunkKind, before float64) int {
	if !slices.ContainsFunc(l.chunks, func(c *Chunk) bool { return c.MinTS < before }) {
		return 0
	}
	dropped := 0
	kept := make([]*Chunk, 0, len(l.chunks))
	for _, c := range l.chunks {
		if c.MinTS >= before {
			kept = append(kept, c)
			continue
		}
		k.bytes.Add(int64(-len(c.Data)))
		k.samples.Add(int64(-c.Count))
		if c.MaxTS < before {
			dropped += c.Count
			continue
		}
		enc, n := keepFrom(&chunkView{Chunk: *c}, before)
		dropped += n
		if enc.Count() > 0 {
			nc := enc.Chunk()
			kept = append(kept, nc)
			k.bytes.Add(int64(len(nc.Data)))
			k.samples.Add(int64(nc.Count))
		}
	}
	l.chunks = kept
	if len(kept) == 0 {
		l.overlap = false
	}
	return dropped
}

// keepFrom re-encodes c's samples with TS >= before into an open
// encoder and returns it with how many samples it dropped.
func keepFrom(c *chunkView, before float64) (Encoder, int) {
	var enc Encoder
	enc.Reset(c.Cols)
	dropped := 0
	it := c.Iter()
	for it.Next() {
		if it.TS() < before {
			dropped++
		} else {
			enc.AppendVals(it.TS(), it.vals[:c.Cols])
		}
	}
	return enc, dropped
}

// count returns the samples the chunks hold.
func (l *chunkList) count() int {
	n := 0
	for _, c := range l.chunks {
		n += c.Count
	}
	return n
}

// oldest folds the chunks' smallest timestamps into low.
func (l *chunkList) oldest(low float64) float64 {
	for _, c := range l.chunks {
		if c.MinTS < low {
			low = c.MinTS
		}
	}
	return low
}

// dump copies the chunks for a snapshot, sharing their immutable bytes.
func (l *chunkList) dump() []Chunk {
	var out []Chunk
	for _, c := range l.chunks {
		out = append(out, *c)
	}
	return out
}

// series owns its blocks under its own lock; labels and key are
// immutable after creation and readable without it, so every Series
// handle to the series shares them.
type series struct {
	labels []labelPair
	key    string // canonical form of labels, the index key

	mu sync.Mutex
	// sealed is the raw tier's compressed chunks, head its open one.
	sealed chunkList
	head   rawHead
	// lastTS/lastVal track the newest sample ever appended, making
	// Latest O(1) instead of a tail scan.
	lastTS  float64
	lastVal float64
	// rolls are the optional downsampled tiers (1m, 1h), allocated and
	// fed on the append path when the DB has tiers configured.
	rolls   *[tierCount]rollState
	hasLast bool
	// dead marks a series removed from the index by retention (or
	// replaced wholesale by Load); cached Series handles revalidate
	// against it before appending.
	dead bool
	// fresh marks a series registered but never appended to, and armed
	// one whose appends maintain the retention watermark (see
	// retention.go).
	fresh, armed bool
	// queued marks a series on the store's pending ring (see DB.queue).
	queued bool
}

// append adds one sample, whose timestamp is not NaN, sealing the head
// into a compressed chunk when it fills. Callers hold s.mu.
func (s *series) append(db *DB, ts, value float64) {
	s.head.add(ts, value)
	switch {
	case !s.hasLast:
		s.lastTS, s.lastVal, s.hasLast = ts, value, true
		if s.fresh {
			s.fresh = false
			db.fresh.Add(-1)
		}
	case ts >= s.lastTS:
		s.lastTS, s.lastVal = ts, value
	}
	if db.tiersOn {
		if s.rolls == nil {
			s.rolls = new([tierCount]rollState)
		}
		for t := range s.rolls {
			s.rolls[t].feed(db, tierSteps[t], ts, value)
		}
	}
	if s.armed {
		db.lowerWatermark(db.evictBound(ts))
	}
	if s.head.count() >= db.sealEvery {
		s.head.compact()
		s.sealed.seal(db, &db.raw, &s.head.run)
		s.head.mark = mark{}
	}
}

// rawCount returns the series' raw sample count. Callers hold s.mu.
func (s *series) rawCount() int {
	return s.head.count() + s.sealed.count()
}

// snapshot captures the series' raw data for lock-free reading: the
// immutable chunk list is shared, and the head, once compacted, by a
// view. Nothing is copied. Callers hold s.mu.
func (s *series) snapshot() seriesSnap {
	s.head.compact()
	sn := seriesSnap{blocks: s.sealed.chunks, open: s.head.run.view(), overlap: s.sealed.overlap}
	if n := len(sn.blocks); n > 0 && sn.open.Count > 0 && sn.open.MinTS < sn.blocks[n-1].MaxTS {
		sn.overlap = true
	}
	return sn
}

// seriesSnap is a point-in-time view of one series' raw tier: its
// sealed chunks and a view of its open one. Both only ever change by
// appending past what the snapshot holds, so it reads without any lock.
type seriesSnap struct {
	blocks  []*Chunk
	open    chunkView
	overlap bool
}

// chunk returns the snapshot's i-th chunk and the bits that follow its
// bytes — the open one comes after the sealed ones — or nil past the
// last.
func (sn *seriesSnap) chunk(i int) (*Chunk, pending) {
	switch {
	case i < len(sn.blocks):
		return sn.blocks[i], pending{}
	case i == len(sn.blocks) && sn.open.Count > 0:
		return &sn.open.Chunk, sn.open.tail
	}
	return nil, pending{}
}

// Iter returns a streaming iterator over the snapshot's points within
// [from, to], in time order.
func (sn seriesSnap) Iter(from, to float64) Iter {
	if sn.overlap {
		return PointsIter(sn.rangePoints(from, to))
	}
	return Iter{sn: sn, from: from, to: to}
}

// estimate bounds the snapshot's points within [from, to]: the samples
// of the chunks overlapping it.
func (sn seriesSnap) estimate(from, to float64) int {
	est := 0
	for i := 0; ; i++ {
		c, _ := sn.chunk(i)
		if c == nil {
			return est
		}
		if c.MaxTS >= from && c.MinTS <= to {
			est += c.Count
		}
	}
}

// materialize decodes the snapshot's points within [from, to] into a
// fresh slice (chunk order, not globally sorted when overlap is set).
func (sn seriesSnap) materialize(from, to float64) []Point {
	out := make([]Point, 0, sn.estimate(from, to))
	for i := 0; ; i++ {
		c, tail := sn.chunk(i)
		if c == nil {
			break
		}
		if c.MaxTS < from || c.MinTS > to {
			continue
		}
		out = c.appendRange(out, tail, from, to)
	}
	return out
}

// rangePoints returns the snapshot's points within [from, to] in time
// order — the materialising read behind Query, QueryOne and, when
// chunks overlap, Iter. The sort is stable: seal order preserves
// append order for equal timestamps.
func (sn seriesSnap) rangePoints(from, to float64) []Point {
	if !sn.overlap {
		return sn.materialize(from, to)
	}
	out := sn.materialize(from, to)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Iter streams one series' raw points in time order without
// materialising them — the aggregate-pushdown building block. The
// zero value is an empty iterator.
type Iter struct {
	sn      seriesSnap // chunks that do not overlap
	bi      int
	cur     ChunkIter
	inChunk bool
	from    float64
	to      float64

	// flat is a PointsIter's already time-ordered points; such an Iter
	// has no chunks.
	flat []Point
	fi   int

	ts  float64
	val float64
}

// Next advances to the next point in [from, to]; it returns false when
// the range is exhausted.
func (it *Iter) Next() bool {
	if it.fi < len(it.flat) {
		p := it.flat[it.fi]
		it.fi++
		it.ts, it.val = p.TS, p.Value
		return true
	}
	for {
		if !it.inChunk {
			c, tail := it.sn.chunk(it.bi)
			if c == nil {
				return false
			}
			it.bi++
			if c.MaxTS < it.from {
				continue
			}
			if c.MinTS > it.to {
				// Chunks are time-ordered: everything later is out of
				// range too.
				it.bi = len(it.sn.blocks) + 1
				return false
			}
			it.cur = c.iter(tail)
			it.inChunk = true
		}
		for it.cur.Next() {
			ts, v := it.cur.At()
			if ts < it.from {
				continue
			}
			if ts > it.to {
				it.bi = len(it.sn.blocks) + 1
				it.inChunk = false
				return false
			}
			it.ts, it.val = ts, v
			return true
		}
		it.inChunk = false
	}
}

// At returns the current point.
func (it *Iter) At() (ts, value float64) { return it.ts, it.val }

// DB is the store. The zero value is not usable; call New.
type DB struct {
	// mu guards only the index; point data lives behind each series' own
	// mutex. Lock order is always db.mu before series.mu; nothing
	// acquires db.mu while holding a series lock.
	mu      sync.RWMutex
	metrics map[string]*metricIndex // see index.go
	points  atomic.Int64

	// sealEvery is the head size that triggers chunk sealing.
	sealEvery int
	// tiersOn enables the rollup tiers; set at wiring time via
	// ConfigureTiers, before the store sees traffic.
	tiersOn bool
	// retain holds the per-tier retention horizons in seconds
	// (raw, 1m, 1h); zero keeps a tier forever.
	retain [1 + tierCount]float64
	// cuts records the newest eviction cutoff applied per tier, which is
	// what tier selection consults to know how far back each tier still
	// has data. Guarded by mu.
	cuts [1 + tierCount]float64
	// wm is the retention watermark (float64 bits): a lower bound on the
	// oldest timestamp retention could evict. armed (guarded by mu) is
	// set once a sweep has run, so new series maintain wm on append;
	// fresh counts series registered but never appended to. See
	// retention.go.
	wm    atomic.Uint64
	armed bool
	fresh atomic.Int64

	// raw and roll account for the sealed chunks of the raw tier and of
	// every rollup tier; headBytes counts the open ones.
	raw, roll chunkKind

	// pend is the pending ring of series whose heads buffer samples,
	// pend0 its oldest entry once full (see DB.queue).
	pendMu sync.Mutex
	pend   []*series
	pend0  int

	// inst holds the optional self-observability instruments; an atomic
	// pointer so readers on the append fast path never take an extra lock.
	inst atomic.Pointer[dbInstruments]
}

// dbInstruments are the store's own health metrics.
type dbInstruments struct {
	appends         *metrics.Counter
	pruneRuns       *metrics.Counter
	retentionSweeps *metrics.Counter
	pruneDropped    *metrics.Counter
	queryLatency    *metrics.Histogram
	sealDuration    *metrics.Histogram
	rollupOOO       *metrics.Counter
}

// Instrument registers the store's self-observability metrics into reg:
// append/prune counters, query-latency and seal-duration histograms,
// and scrape-time gauges for live series/point counts per tier plus
// compression totals. Call once, at wiring time, before the store sees
// traffic.
func (db *DB) Instrument(reg *metrics.Registry) {
	db.inst.Store(&dbInstruments{
		appends: reg.NewCounter("meshmon_tsdb_appends_total",
			"Samples appended to the time-series store."),
		pruneRuns: reg.NewCounter("meshmon_tsdb_prune_runs_total",
			"Retention calls (Retain/Prune), whether or not they walked the store."),
		retentionSweeps: reg.NewCounter("meshmon_tsdb_retention_sweeps_total",
			"Retention passes that walked the store (the rest found nothing expired)."),
		pruneDropped: reg.NewCounter("meshmon_tsdb_prune_dropped_total",
			"Samples dropped by retention pruning."),
		queryLatency: reg.NewHistogram("meshmon_tsdb_query_seconds",
			"Latency of range queries and aggregate pushdowns.", nil),
		sealDuration: reg.NewHistogram("meshmon_tsdb_seal_seconds",
			"Time to compress one head block into a sealed chunk.", nil),
		rollupOOO: reg.NewCounter("meshmon_tsdb_rollup_ooo_dropped_total",
			"Samples too old for the open rollup bucket, absent from rollup tiers (raw tier keeps them)."),
	})
	reg.NewGaugeFunc("meshmon_tsdb_series",
		"Distinct series currently in the store.",
		func() float64 { return float64(db.SeriesCount()) })
	reg.NewGaugeFunc("meshmon_tsdb_points",
		"Raw samples currently in the store.",
		func() float64 { return float64(db.PointCount()) })
	reg.NewGaugeFunc("meshmon_tsdb_compressed_bytes",
		"Bytes held in sealed compressed chunks across all tiers.",
		func() float64 { return float64(db.raw.bytes.Load() + db.roll.bytes.Load()) })
	reg.NewGaugeFunc("meshmon_tsdb_head_bytes",
		"Bytes held in open head chunks across all tiers, plus 16 per raw sample slot buffered for a merge.",
		func() float64 { return float64(db.headBytes()) })
	reg.NewGaugeFunc("meshmon_tsdb_bytes_per_sample",
		"Compressed bytes per sealed raw sample (16 uncompressed).",
		func() float64 {
			n := db.raw.samples.Load()
			if n == 0 {
				return 0
			}
			return float64(db.raw.bytes.Load()) / float64(n)
		})
	for t := 0; t < tierCount; t++ {
		t := t
		reg.NewGaugeFunc("meshmon_tsdb_rollup_"+tierNames[t+1]+"_points",
			"Downsampled buckets held in the "+tierNames[t+1]+" rollup tier.",
			func() float64 { s, p := db.tierCounts(t); _ = s; return float64(p) })
		reg.NewGaugeFunc("meshmon_tsdb_rollup_"+tierNames[t+1]+"_series",
			"Series with data in the "+tierNames[t+1]+" rollup tier.",
			func() float64 { s, _ := db.tierCounts(t); return float64(s) })
	}
}

// New returns an empty store with rollup tiers disabled.
func New() *DB {
	db := &DB{
		metrics:   make(map[string]*metricIndex),
		sealEvery: defaultSealEvery,
	}
	db.raw.cols, db.roll.cols = 1, rollupCols
	db.wm.Store(negInfBits)
	return db
}

// SetSealEvery overrides the head-block size that triggers compression
// (mainly for tests and experiments). Call at wiring time.
func (db *DB) SetSealEvery(n int) {
	if n < 1 {
		n = 1
	}
	db.sealEvery = n
}

// CompressionStats reports the sealed-storage footprint: compressed
// bytes across all tiers, samples inside sealed raw chunks, and the
// raw-tier bytes per sample (0 until something seals).
func (db *DB) CompressionStats() (compressedBytes, sealedSamples int64, bytesPerSample float64) {
	compressedBytes = db.raw.bytes.Load() + db.roll.bytes.Load()
	sealedSamples = db.raw.samples.Load()
	if sealedSamples > 0 {
		bytesPerSample = float64(db.raw.bytes.Load()) / float64(sealedSamples)
	}
	return
}

// getOrCreateLocked returns the series for (name, key), creating it
// with the stored labels if missing. Callers must hold the index write
// lock.
func (db *DB) getOrCreateLocked(name, key string, labels []labelPair) *series {
	mi := db.metrics[name]
	if mi == nil {
		mi = newIndex(nil)
		db.metrics[name] = mi
	}
	s := mi.get(key)
	if s == nil {
		s = &series{labels: labels, key: key, fresh: true, armed: db.armed}
		mi.add(s)
		db.fresh.Add(1)
	}
	return s
}

// getOrCreate is getOrCreateLocked under the index write lock.
func (db *DB) getOrCreate(name string, labels Labels) *series {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.getOrCreateLocked(name, labels.canonical(), compactLabels(labels))
}

// lookup returns the live series for (name, labels) or nil.
func (db *DB) lookup(name, key string) *series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if mi := db.metrics[name]; mi != nil {
		return mi.get(key)
	}
	return nil
}

// lockLive locks s if it is still in the index, otherwise re-registers
// s's labels under name and tries again. It returns the locked, live
// series.
func (db *DB) lockLive(name string, s *series) *series {
	for {
		s.mu.Lock()
		if !s.dead {
			return s
		}
		s.mu.Unlock()
		db.mu.Lock()
		s = db.getOrCreateLocked(name, s.key, s.labels)
		db.mu.Unlock()
	}
}

// Append adds a sample to the series (name, labels). A sample whose
// timestamp is NaN is ignored: it has no place in time order.
func (db *DB) Append(name string, labels Labels, ts, value float64) {
	db.append(name, nil, labels, ts, value)
}

// append is DB.Append and Series.Append: it adds one sample to s, or,
// when s is nil, to the series (name, labels), registering it if need
// be, and returns the live series it appended to. A sample whose
// timestamp is NaN never enters the store: it creates no series, and
// no count or metric sees it.
func (db *DB) append(name string, s *series, labels Labels, ts, value float64) *series {
	if ts != ts {
		return s
	}
	if s == nil {
		if s = db.lookup(name, labels.canonical()); s == nil {
			s = db.getOrCreate(name, labels)
		}
	}
	s = db.lockLive(name, s)
	s.append(db, ts, value)
	queue := len(s.head.late) > 0 && !s.queued
	if queue {
		s.queued = true
	}
	s.mu.Unlock()
	if queue {
		db.queue(s)
	}
	db.points.Add(1)
	if m := db.inst.Load(); m != nil {
		m.appends.Inc()
	}
	return s
}

// Series is a cached handle to one exact (metric, labels) series: the
// canonical label key is computed once, so hot ingest paths appending to
// the same series thousands of times skip the per-call sorting and
// string building. The handle holds no labels of its own; it shares the
// series' stored labels and key. Handles stay valid across retention —
// a pruned-away series is transparently re-registered on the next
// Append — and are safe for concurrent use.
type Series struct {
	db   *DB
	name string
	s    atomic.Pointer[series]
}

// Series returns a cached append handle for the exact series
// (name, labels), creating the series if it does not exist yet.
func (db *DB) Series(name string, labels Labels) *Series {
	h := &Series{db: db, name: name}
	h.s.Store(db.getOrCreate(name, labels))
	return h
}

// Append adds a sample to the handle's series, ignoring it, as
// DB.Append does, when its timestamp is NaN. Distinct series append
// without contending: only the series' own mutex is taken.
func (h *Series) Append(ts, value float64) {
	h.s.Store(h.db.append(h.name, h.s.Load(), nil, ts, value))
}

// Labels returns the handle's label set (a copy).
func (h *Series) Labels() Labels { return exportLabels(h.s.Load().labels) }

// Result is one matched series with its points in time order.
type Result struct {
	Labels Labels
	Points []Point
}

// snap captures one series' raw snapshot under its lock.
func snap(s *series) seriesSnap {
	s.mu.Lock()
	sn := s.snapshot()
	s.mu.Unlock()
	return sn
}

// Query returns every series of the metric whose labels contain matcher,
// restricted to from <= TS <= to, sorted by canonical label string.
// Chunks decode outside any lock, so queries only briefly touch each
// series (to take its snapshot) and proceed concurrently with ingest.
func (db *DB) Query(name string, matcher Labels, from, to float64) []Result {
	defer db.observeQuery(time.Now())
	matched := db.match(name, matcher)
	out := make([]Result, 0, len(matched))
	for _, s := range matched {
		sn := snap(s)
		out = append(out, Result{Labels: exportLabels(s.labels), Points: sn.rangePoints(from, to)})
	}
	return out
}

// QueryOne returns the single series matching exactly (name, labels), or
// false when it does not exist.
func (db *DB) QueryOne(name string, labels Labels, from, to float64) (Result, bool) {
	s := db.lookup(name, labels.canonical())
	if s == nil {
		return Result{}, false
	}
	sn := snap(s)
	return Result{Labels: exportLabels(s.labels), Points: sn.rangePoints(from, to)}, true
}

// IterOne returns a streaming iterator over the exact series' raw
// points in [from, to] — the no-materialisation read path for analysis
// passes that fold or early-exit. The iterator is independent of
// subsequent ingest (sealed chunks are immutable; the head is a view).
func (db *DB) IterOne(name string, labels Labels, from, to float64) (Iter, bool) {
	s := db.lookup(name, labels.canonical())
	if s == nil {
		return Iter{}, false
	}
	return snap(s).Iter(from, to), true
}

// Latest returns the most recent sample of the exact series. It is
// O(1): the newest sample is tracked on the append path instead of
// scanning the tail.
func (db *DB) Latest(name string, labels Labels) (Point, bool) {
	s := db.lookup(name, labels.canonical())
	if s == nil {
		return Point{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasLast {
		return Point{}, false
	}
	return Point{TS: s.lastTS, Value: s.lastVal}, true
}

// countRange counts the snapshot's points in [from, to]. Chunks fully
// inside the range contribute their stored Count without being decoded
// — valid even under overlap, since per-chunk Min/MaxTS are exact — so
// full-range counts cost O(chunks), not O(points).
func (sn seriesSnap) countRange(from, to float64) int {
	n := 0
	for i := 0; ; i++ {
		c, tail := sn.chunk(i)
		if c == nil {
			break
		}
		switch {
		case c.MaxTS < from || c.MinTS > to:
		case c.MinTS >= from && c.MaxTS <= to:
			n += c.Count
		default:
			it := c.iter(tail)
			for it.Next() {
				if ts, _ := it.At(); ts >= from && ts <= to {
					n++
				}
			}
		}
	}
	return n
}

// AggregateRange folds every point of the metric's matched series in
// [from, to] into a single value by streaming compressed chunks — no
// point slice is materialised (count goes further and reads chunk
// metadata instead of decoding). Matched series are folded in canonical
// label order so floating-point results are deterministic. NaN is
// returned when no point matches (count returns 0).
func (db *DB) AggregateRange(name string, matcher Labels, from, to float64, agg Agg) float64 {
	defer db.observeQuery(time.Now())
	matched := db.match(name, matcher)
	if agg == AggCount {
		n := 0
		for _, s := range matched {
			n += snap(s).countRange(from, to)
		}
		return float64(n)
	}

	acc := RollupSample{Min: math.Inf(1), Max: math.Inf(-1), lastTS: math.Inf(-1)}
	for _, s := range matched {
		it := snap(s).Iter(from, to)
		for it.Next() {
			acc.add(it.At())
		}
	}
	return acc.value(agg)
}

// MetricNames returns all metric names, sorted.
func (db *DB) MetricNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.metrics))
	for name := range db.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SeriesCount returns the number of distinct series.
func (db *DB) SeriesCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, mi := range db.metrics {
		n += len(mi.all)
	}
	return n
}

// PointCount returns the number of stored raw samples.
func (db *DB) PointCount() int {
	return int(db.points.Load())
}

// headBytes returns the bytes the open head chunks of every tier hold,
// counting 16 per sample slot a raw head buffers.
func (db *DB) headBytes() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, mi := range db.metrics {
		for _, s := range mi.all {
			s.mu.Lock()
			n += s.head.bytes()
			if s.rolls != nil {
				for t := range s.rolls {
					n += s.rolls[t].head.size()
				}
			}
			s.mu.Unlock()
		}
	}
	return n
}

// observeQuery records one read-path latency sample when instrumented.
func (db *DB) observeQuery(start time.Time) {
	if m := db.inst.Load(); m != nil {
		m.queryLatency.Observe(time.Since(start).Seconds())
	}
}

// pruneRaw drops the series' raw samples with TS < before, from its
// chunks and its head. Callers hold s.mu. Returns how many samples were
// dropped.
func (s *series) pruneRaw(db *DB, before float64) int {
	dropped := s.sealed.prune(&db.raw, before)
	if !(s.head.oldest() < before) {
		return dropped
	}
	s.head.compact()
	c := s.head.run.view()
	run, n := keepFrom(&c, before)
	s.head.run, s.head.mark = run, mark{}
	return dropped + n
}

// hasRollupData reports whether any rollup tier still holds buckets.
// Callers hold s.mu.
func (s *series) hasRollupData() bool {
	if s.rolls == nil {
		return false
	}
	for t := range s.rolls {
		if !s.rolls[t].empty() {
			return true
		}
	}
	return false
}
