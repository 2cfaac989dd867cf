// Package readcache is the serving half of the streaming read path: a
// per-panel HTTP response cache keyed on the collector's ingest epoch.
//
// The dashboard's panels are pure functions of collector state, and the
// collector tells us exactly when that state changes (collector.View's
// Epoch advances once per accepted batch). So instead of re-rendering
// every panel for every viewer — the render-per-request model that
// caps how many operators can watch one mesh — each panel is rendered
// once per epoch and the bytes are replayed to every other viewer at
// that epoch. Invalidation is exact, not time-based: a cached entry is
// served only while the epoch that produced it is still current, which
// holds for the sharded collector (one atomic) and for a federated
// View (sum of member epochs) alike.
//
// Concurrent first requests at a new epoch coalesce: one renders, the
// rest wait for its bytes. That bounds server-side render work at one
// render per panel per epoch no matter how many clients are connected,
// which is what moves the read-saturation knee (experiment T10).
package readcache

import (
	"net/http"
	"strconv"
	"sync"

	"lorameshmon/internal/metrics"
)

// Instruments are the read path's self-observability handles — the
// meshmon_read_* families shared by the response cache and the
// dashboard's SSE/long-poll hub. Create one per registry and hand it
// to both, so a second dashboard over the same registry cannot
// double-register the families.
type Instruments struct {
	Hits   *metrics.Counter // cache hits (including coalesced waiters)
	Misses *metrics.Counter // renders that populated the cache
	Bypass *metrics.Counter // uncacheable requests passed straight through

	Entries *metrics.Gauge // cached responses currently held
	Bytes   *metrics.Gauge // cached response bytes currently held

	SSEClients  *metrics.Gauge   // connected SSE subscribers
	SSEEvents   *metrics.Counter // delta events written to subscribers
	SSEDropped  *metrics.Counter // events coalesced/dropped on slow clients
	DeltaBytes  *metrics.Counter // bytes of delta payload written
	PollChanged *metrics.Counter // long-polls answered with an advance
	PollTimeout *metrics.Counter // long-polls that timed out unchanged
}

// NewInstruments registers the meshmon_read_* families into reg (nil
// gets a private registry, so instrumentation is always live).
func NewInstruments(reg *metrics.Registry) *Instruments {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	requests := reg.NewCounterVec("meshmon_read_cache_requests_total",
		"Panel requests by cache outcome.", "result")
	poll := reg.NewCounterVec("meshmon_read_longpoll_total",
		"Long-poll requests by outcome.", "result")
	return &Instruments{
		Hits:   requests.With("hit"),
		Misses: requests.With("miss"),
		Bypass: requests.With("bypass"),
		Entries: reg.NewGauge("meshmon_read_cache_entries",
			"Cached panel responses currently held."),
		Bytes: reg.NewGauge("meshmon_read_cache_bytes",
			"Bytes of cached panel responses currently held."),
		SSEClients: reg.NewGauge("meshmon_read_sse_clients",
			"Connected SSE delta subscribers."),
		SSEEvents: reg.NewCounter("meshmon_read_sse_events_total",
			"Delta events written to SSE subscribers."),
		SSEDropped: reg.NewCounter("meshmon_read_sse_dropped_total",
			"Delta events dropped (coalesced) on slow SSE subscribers."),
		DeltaBytes: reg.NewCounter("meshmon_read_delta_bytes_total",
			"Bytes of SSE/long-poll delta payload written."),
		PollChanged: poll.With("changed"),
		PollTimeout: poll.With("timeout"),
	}
}

// Config tunes a Cache.
type Config struct {
	// Epoch reports the current invalidation epoch; entries are served
	// only while the epoch they were rendered at is still current.
	// Required.
	Epoch func() uint64
	// MaxEntries bounds the number of cached responses (default 512).
	// When full, entries from dead epochs are evicted first.
	MaxEntries int
	// Inst receives cache hit/miss accounting; nil gets a private set.
	Inst *Instruments
}

// entry is one response a panel rendered at a given epoch: its status,
// its body, copied once at its exact length, and the values of the
// headers serve sets. It is also the flight that coalesces concurrent
// misses on its key: the first request renders it, the rest wait on
// rendered and replay it if its status is 200 (an uncacheable render is
// replayed only to the client that made it).
type entry struct {
	epoch  uint64
	status int
	// header holds the Content-Type, epoch and Content-Length values;
	// serve hands out one-element slices of it.
	header   [3]string
	body     []byte
	rendered sync.WaitGroup
}

// Cache is the per-panel response cache. One instance fronts all of a
// dashboard's panel routes; keys are (panel, request URI).
type Cache struct {
	epoch func() uint64
	max   int
	inst  *Instruments

	mu      sync.Mutex
	entries map[string]*entry
	flights map[string]*entry
	bytes   int64
}

// New builds a cache. cfg.Epoch is required.
func New(cfg Config) *Cache {
	if cfg.Epoch == nil {
		panic("readcache: Config.Epoch is required")
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 512
	}
	if cfg.Inst == nil {
		cfg.Inst = NewInstruments(nil)
	}
	return &Cache{
		epoch:   cfg.Epoch,
		max:     cfg.MaxEntries,
		inst:    cfg.Inst,
		entries: make(map[string]*entry),
		flights: make(map[string]*entry),
	}
}

// EpochHeader is set on every response served through the cache; tests
// and clients use it to tell which epoch a panel reflects.
const EpochHeader = "Meshmon-Epoch"

// recorder captures a handler's response for caching. Recorders are
// reused: one keeps its header map, and hands its body to the entry.
type recorder struct {
	h      http.Header
	status int
	body   []byte
}

var recorders = sync.Pool{New: func() any { return &recorder{h: make(http.Header)} }}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	// A handler writes its page once, so this is one copy at its length.
	r.body = append(r.body, p...)
	return len(p), nil
}

// Wrap fronts one panel handler with the cache. Only GET requests are
// cached, and only 200 responses are stored; everything else passes
// through (counted as bypass). The entry's epoch is read before the
// render, so a render that races an ingest is cached under the older
// epoch and re-rendered on the next request — staleness beyond the
// current epoch is impossible.
func (c *Cache) Wrap(panel string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			c.inst.Bypass.Inc()
			next.ServeHTTP(w, r)
			return
		}
		// The key is built on the stack and looked up without a copy;
		// it is allocated only for a render.
		var buf [256]byte
		k := append(append(buf[:0], panel...), 0)
		if r.RequestURI != "" {
			k = append(k, r.RequestURI...)
		} else {
			k = append(k, r.URL.RequestURI()...)
		}
		// Two coalescing rounds, then render directly: under continuous
		// ingest a waiter could otherwise chase the epoch forever.
		for attempt := 0; attempt < 2; attempt++ {
			cur := c.epoch()
			c.mu.Lock()
			if e := c.entries[string(k)]; e != nil && e.epoch == cur {
				c.mu.Unlock()
				c.inst.Hits.Inc()
				serve(w, e)
				return
			}
			if f := c.flights[string(k)]; f != nil {
				c.mu.Unlock()
				f.rendered.Wait()
				if f.status == http.StatusOK && f.epoch == c.epoch() {
					c.inst.Hits.Inc()
					serve(w, f)
					return
				}
				continue // epoch moved mid-render, or not cacheable; try again
			}
			key := string(k)
			e := &entry{epoch: cur}
			e.rendered.Add(1)
			c.flights[key] = e
			c.mu.Unlock()

			c.render(key, e, next, r)
			if e.status == http.StatusOK {
				c.inst.Misses.Inc()
			} else {
				c.inst.Bypass.Inc() // not cacheable: replayed to this client only
			}
			serve(w, e)
			return
		}
		// Coalescing lost the epoch race twice; render uncached.
		c.inst.Bypass.Inc()
		next.ServeHTTP(w, r)
	})
}

// render runs the panel handler into e, stores e if its status is 200
// and releases the requests waiting on it.
func (c *Cache) render(key string, e *entry, next http.Handler, r *http.Request) {
	rec := recorders.Get().(*recorder)
	next.ServeHTTP(rec, r)
	e.status = rec.status
	if e.status == 0 {
		e.status = http.StatusOK // nothing written: 200, empty, as net/http answers
	}
	e.body = rec.body
	e.header = [3]string{rec.h.Get("Content-Type"), formatUint(e.epoch), strconv.Itoa(len(e.body))}
	clear(rec.h)
	*rec = recorder{h: rec.h}
	recorders.Put(rec)
	c.mu.Lock()
	delete(c.flights, key)
	if e.status == http.StatusOK {
		c.store(key, e)
	}
	c.mu.Unlock()
	e.rendered.Done()
}

// store inserts e under key, evicting dead-epoch entries when full.
// Called with c.mu held.
func (c *Cache) store(key string, e *entry) {
	if old := c.entries[key]; old != nil {
		c.bytes -= int64(len(old.body))
	} else if len(c.entries) >= c.max {
		c.evictLocked(e.epoch)
	}
	c.entries[key] = e
	c.bytes += int64(len(e.body))
	c.inst.Entries.Set(float64(len(c.entries)))
	c.inst.Bytes.Set(float64(c.bytes))
}

// evictLocked frees one slot, preferring entries from dead epochs.
func (c *Cache) evictLocked(cur uint64) {
	var victim string
	found := false
	for k, e := range c.entries {
		victim, found = k, true
		if e.epoch != cur {
			break
		}
	}
	if found {
		c.bytes -= int64(len(c.entries[victim].body))
		delete(c.entries, victim)
	}
}

// Len reports the number of cached responses (tests, health panel).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// serve replays e. Its header values are e's own, never modified: a
// ResponseWriter copies its header map when the status is written.
func serve(w http.ResponseWriter, e *entry) {
	h := w.Header()
	if e.header[0] != "" {
		h["Content-Type"] = e.header[0:1:1]
	}
	h[EpochHeader] = e.header[1:2:2]
	h["Content-Length"] = e.header[2:3:3]
	w.WriteHeader(e.status)
	w.Write(e.body) //nolint:errcheck // client went away
}

// formatUint avoids strconv for the single header we stamp per hit.
func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
