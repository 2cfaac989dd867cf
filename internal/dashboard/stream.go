package dashboard

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/readcache"
)

// delta is one streamed update: the composite epoch (ingest epoch +
// alert generation) the server state reached, "now" in record time,
// and which panels changed since the last event. A Resync delta means
// the subscriber's queue overflowed and intermediate events were
// coalesced away — the epoch is current, but re-fetch every panel.
type delta struct {
	Epoch  uint64   `json:"epoch"`
	MaxTS  float64  `json:"max_ts"`
	Panels []string `json:"panels,omitempty"`
	Resync bool     `json:"resync,omitempty"`
}

// fingerprint is the hub's change detector: one snapshot per wake,
// diffed field-by-field to name the panels that changed. It is built
// from Epoch, one Stats call and the alert generation — O(1) on a
// collector, O(members) on a federation, independent of how
// many nodes and links the registry holds. Nothing is rendered, copied
// or sorted.
type fingerprint struct {
	epoch   uint64 // ingest epoch → overview, node, chart panels
	records uint64 // records ingested → traffic panel
	nodes   int    // registry size → topology panel
	links   int    // observed links → topology panel
	gen     uint64 // alert generation → alerts (and overview banner)
}

// clock is the composite epoch (ingest epoch + alert generation) the
// fingerprint was taken at — the epoch deltas carry.
func (f fingerprint) clock() uint64 { return f.epoch + f.gen }

// subscriber is one connected SSE client. Queue sends are non-blocking:
// a full queue marks the subscriber lost instead of stalling the hub,
// and the hub offers a resync delta once the queue has space again —
// so a slow client can miss intermediate epochs but never the final
// one.
type subscriber struct {
	ch       chan delta
	greeting delta       // the state the client is first told about
	last     fingerprint // the state the client was last told about; guarded by hub.mu
	lost     bool        // guarded by hub.mu
}

// streamHub fans state-change deltas out to SSE subscribers. One
// goroutine watches the view's Changed channel (plus a ticker, for
// alert transitions that happen without ingest), fingerprints the
// state, and sends each subscriber the diff against what it last heard.
type streamHub struct {
	view   collector.View
	engine alertSource   // may be nil
	epoch  func() uint64 // composite clock, shared with the cache
	inst   *readcache.Instruments
	queue  int
	tick   time.Duration
	// startHook, when set, runs at the top of the watch loop's
	// goroutine — tests use it to hold the hub back while they ingest.
	startHook func()

	start  sync.Once
	done   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

func newStreamHub(view collector.View, engine alertSource, epoch func() uint64, inst *readcache.Instruments, queue int, tick time.Duration) *streamHub {
	if queue <= 0 {
		queue = 16
	}
	if tick <= 0 {
		tick = 250 * time.Millisecond
	}
	return &streamHub{
		view:   view,
		engine: engine,
		epoch:  epoch,
		inst:   inst,
		queue:  queue,
		tick:   tick,
		done:   make(chan struct{}),
		subs:   make(map[*subscriber]struct{}),
	}
}

// snapshot reads the epoch before Stats: the epoch advances only after
// a batch's state is visible, so every counter already includes each
// batch the epoch counts.
func (h *streamHub) snapshot() fingerprint {
	epoch := h.view.Epoch()
	st := h.view.Stats()
	fp := fingerprint{
		epoch:   epoch,
		records: st.RecordsIngested,
		nodes:   st.NodesKnown,
		links:   st.LinksKnown,
	}
	if h.engine != nil {
		fp.gen = h.engine.Generation()
	}
	return fp
}

// diff names the panels whose backing state changed between a and b.
func diff(a, b fingerprint) []string {
	var panels []string
	if a.epoch != b.epoch || a.gen != b.gen {
		panels = append(panels, "overview")
	}
	if a.epoch != b.epoch {
		panels = append(panels, "node", "chart")
	}
	if a.records != b.records {
		panels = append(panels, "traffic")
	}
	if a.nodes != b.nodes || a.links != b.links {
		panels = append(panels, "topology")
	}
	if a.gen != b.gen {
		panels = append(panels, "alerts")
	}
	return panels
}

// run is the hub's watch loop. The Changed channel gives an immediate
// wake on ingest; the ticker catches alert engine transitions, which
// happen on the Check cadence without any ingest to signal them.
func (h *streamHub) run() {
	defer h.wg.Done()
	if h.startHook != nil {
		h.startHook()
	}
	ticker := time.NewTicker(h.tick)
	defer ticker.Stop()
	for {
		// Channel first, then publish — the lost-wakeup-safe pattern
		// documented on View.Changed.
		ch := h.view.Changed()
		h.publish()
		select {
		case <-h.done:
			return
		case <-ch:
		case <-ticker.C:
		}
	}
}

// publish brings every subscriber up to the current state: a delta
// naming the panels changed since the state it last heard, or, for a
// subscriber whose queue overflowed, a resync once the queue has room
// (at worst one tick after the client drains — the no-stale-forever
// guarantee). A full queue marks the subscriber lost; the change is
// dropped, not the client. The snapshot is taken under h.mu, as
// subscribe's baseline is, so no subscriber is ever ahead of it.
//
// Only a move of the composite clock is published. A batch's counters
// become visible just before its epoch advance, so a snapshot can catch
// them early; publishing that would send a delta whose epoch the client
// already has. The advance follows at once and wakes the hub again.
func (h *streamHub) publish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.snapshot()
	maxTS, haveMaxTS := 0.0, false
	for sub := range h.subs {
		moved := cur.clock() != sub.last.clock()
		if !moved && !sub.lost {
			continue
		}
		if !haveMaxTS {
			maxTS, haveMaxTS = h.view.MaxTS(), true
		}
		d := delta{Epoch: cur.clock(), MaxTS: maxTS, Resync: sub.lost}
		if !sub.lost {
			d.Panels = diff(sub.last, cur)
		}
		select {
		case sub.ch <- d:
			sub.lost = false
		default:
			if moved {
				h.inst.SSEDropped.Inc()
			}
			sub.lost = true
		}
		sub.last = cur
	}
}

// subscribe registers a client and lazily starts the watch loop.
func (h *streamHub) subscribe() (*subscriber, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, false
	}
	h.start.Do(func() {
		h.wg.Add(1)
		go h.run()
	})
	// The baseline is taken here, under h.mu, rather than by the watch
	// loop: a change landing after the greeting is then always diffed
	// against the greeted state and delivered, never absorbed.
	cur := h.snapshot()
	sub := &subscriber{
		ch:       make(chan delta, h.queue),
		greeting: delta{Epoch: cur.clock(), MaxTS: h.view.MaxTS()},
		last:     cur,
	}
	h.subs[sub] = struct{}{}
	h.inst.SSEClients.Set(float64(len(h.subs)))
	return sub, true
}

func (h *streamHub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
	h.inst.SSEClients.Set(float64(len(h.subs)))
}

// Close stops the watch loop and releases subscribers: handlers see
// done, drain whatever is already queued, and return, so an in-flight
// client gets every delta the hub managed to enqueue before shutdown.
func (h *streamHub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	close(h.done)
	h.wg.Wait()
}

// handleEvents serves `GET /events`: an SSE stream of delta events.
// The first event (`event: epoch`) carries the current composite
// epoch so the client knows its baseline; each subsequent `event:
// delta` names the changed panels. Slow clients are never blocked on:
// their queue overflows, intermediate deltas coalesce and a resync
// delta follows (see subscriber).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "dashboard: streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub, ok := s.hub.subscribe()
	if !ok {
		http.Error(w, "dashboard: shutting down", http.StatusServiceUnavailable)
		return
	}
	defer s.hub.unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	s.writeEvent(w, "epoch", sub.greeting)
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.hub.done:
			// Graceful shutdown: drain what's queued, then hang up.
			for {
				select {
				case d := <-sub.ch:
					s.writeEvent(w, "delta", d)
				default:
					flusher.Flush()
					return
				}
			}
		case d := <-sub.ch:
			s.writeEvent(w, "delta", d)
			flusher.Flush()
		}
	}
}

// writeEvent emits one SSE frame and accounts its payload bytes.
func (s *Server) writeEvent(w http.ResponseWriter, event string, d delta) {
	frame := append(make([]byte, 0, 128), "event: "...)
	frame = append(frame, event...)
	frame = append(frame, "\ndata: "...)
	frame, err := appendDeltaJSON(frame, &d)
	if err != nil {
		return
	}
	n, _ := w.Write(append(frame, "\n\n"...))
	s.inst.SSEEvents.Inc()
	s.inst.DeltaBytes.Add(float64(n))
}

// handleEventsPoll serves `GET /events/poll?since=N&timeout=S` — the
// long-poll fallback for clients that can't hold an SSE stream. It
// answers 200 with a delta as soon as the composite epoch exceeds
// `since` (immediately, if it already does) and 204 after `timeout`
// seconds without an advance. Wakes ride the view's Changed channel,
// so an ingest answers pending polls at once; alert-only transitions
// surface at the timeout.
func (s *Server) handleEventsPoll(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("dashboard: bad since %q", v), http.StatusBadRequest)
			return
		}
		since = n
	}
	timeout := 25.0
	if v := q.Get("timeout"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(t) || t < 0 {
			http.Error(w, fmt.Sprintf("dashboard: bad timeout %q", v), http.StatusBadRequest)
			return
		}
		timeout = math.Min(t, 60)
	}
	deadline := time.NewTimer(time.Duration(timeout * float64(time.Second)))
	defer deadline.Stop()
	for {
		// Channel first, then compare (see View.Changed).
		ch := s.coll.Changed()
		if e := s.epoch(); e > since {
			d := delta{Epoch: e, MaxTS: s.coll.MaxTS()}
			payload, _ := appendDeltaJSON(nil, &d)
			w.Header().Set("Content-Type", "application/json")
			n, _ := w.Write(append(payload, '\n'))
			s.inst.PollChanged.Inc()
			s.inst.DeltaBytes.Add(float64(n))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.hub.done:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-deadline.C:
			s.inst.PollTimeout.Inc()
			w.WriteHeader(http.StatusNoContent)
			return
		case <-ch:
		}
	}
}
