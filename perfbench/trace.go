package main

import (
	"bytes"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// span is one timed call at a layer boundary. parent is the index of
// the span open on the same goroutine when this one began (-1 if none).
type span struct {
	name       string
	start, end time.Duration // since the recorder's base
	parent     int32
}

// recorder keeps every span of a traced run in memory until it ends.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	from  int                // first span of the measured phase
	open  map[uint64][]int32 // goroutine id -> stack of open span indices
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), open: map[uint64][]int32{}}
}

// begin opens a span on the calling goroutine and returns its index.
func (r *recorder) begin(name string) int32 {
	gid := goroutineID()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if st := r.open[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: time.Since(r.base), end: -1, parent: parent})
	r.open[gid] = append(r.open[gid], id)
	return id
}

// end closes span id, which must be the innermost open span of the
// calling goroutine.
func (r *recorder) end(id int32) {
	now := time.Since(r.base)
	gid := goroutineID()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	st := r.open[gid]
	if len(st) > 0 && st[len(st)-1] == id {
		st = st[:len(st)-1]
	}
	if len(st) == 0 {
		delete(r.open, gid)
	} else {
		r.open[gid] = st
	}
}

// reset starts the measured phase: spans recorded so far (set-up and
// warm-up) are left out of finished.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.from = len(r.spans)
}

// finished returns a copy of the measured phase's spans, with parent
// indices remapped into the copy (-1 where the parent began earlier).
func (r *recorder) finished() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans[r.from:]...)
	for i := range out {
		out[i].parent -= int32(r.from)
		if out[i].parent < 0 {
			out[i].parent = -1
		}
	}
	return out
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// tracedView wraps a collector.View, recording a span per read call; its
// DB is wrapped the same way.
type tracedView struct {
	collector.View
	rec *recorder
}

func (v tracedView) Nodes() []collector.NodeInfo {
	defer v.rec.end(v.rec.begin("view.Nodes"))
	return v.View.Nodes()
}

func (v tracedView) Node(id wire.NodeID) (collector.NodeInfo, bool) {
	defer v.rec.end(v.rec.begin("view.Node"))
	return v.View.Node(id)
}

func (v tracedView) Links(from float64) []collector.LinkObs {
	defer v.rec.end(v.rec.begin("view.Links"))
	return v.View.Links(from)
}

func (v tracedView) Recent(limit int) []wire.PacketRecord {
	defer v.rec.end(v.rec.begin("view.Recent"))
	return v.View.Recent(limit)
}

func (v tracedView) Stats() collector.Stats {
	defer v.rec.end(v.rec.begin("view.Stats"))
	return v.View.Stats()
}

func (v tracedView) MaxTS() float64 {
	defer v.rec.end(v.rec.begin("view.MaxTS"))
	return v.View.MaxTS()
}

func (v tracedView) DB() tsdb.Querier { return tracedQuerier{v.View.DB(), v.rec} }

// tracedQuerier wraps a tsdb.Querier, recording a span per query call.
type tracedQuerier struct {
	tsdb.Querier
	rec *recorder
}

func (q tracedQuerier) Query(name string, m tsdb.Labels, from, to float64) []tsdb.Result {
	defer q.rec.end(q.rec.begin("tsdb.Query"))
	return q.Querier.Query(name, m, from, to)
}

func (q tracedQuerier) QueryOne(name string, l tsdb.Labels, from, to float64) (tsdb.Result, bool) {
	defer q.rec.end(q.rec.begin("tsdb.QueryOne"))
	return q.Querier.QueryOne(name, l, from, to)
}

func (q tracedQuerier) QueryRange(name string, m tsdb.Labels, from, to, step float64, agg tsdb.Agg) []tsdb.Result {
	defer q.rec.end(q.rec.begin("tsdb.QueryRange"))
	return q.Querier.QueryRange(name, m, from, to, step, agg)
}

func (q tracedQuerier) AggregateRange(name string, m tsdb.Labels, from, to float64, agg tsdb.Agg) float64 {
	defer q.rec.end(q.rec.begin("tsdb.AggregateRange"))
	return q.Querier.AggregateRange(name, m, from, to, agg)
}

func (q tracedQuerier) IterOne(name string, l tsdb.Labels, from, to float64) (tsdb.Iter, bool) {
	defer q.rec.end(q.rec.begin("tsdb.IterOne"))
	return q.Querier.IterOne(name, l, from, to)
}

func (q tracedQuerier) Latest(name string, l tsdb.Labels) (tsdb.Point, bool) {
	defer q.rec.end(q.rec.begin("tsdb.Latest"))
	return q.Querier.Latest(name, l)
}

// view returns v wrapped for tracing when rec is set.
func (e *env) view(v collector.View) collector.View {
	if e.rec == nil {
		return v
	}
	return tracedView{v, e.rec}
}

// handler wraps h so every request except the SSE stream records a span
// named by name(path).
func (e *env) handler(name func(path string) string, h http.Handler) http.Handler {
	if e.rec == nil {
		return h
	}
	rec := e.rec
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/events" {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.begin(name(r.URL.Path))
		defer rec.end(id)
		h.ServeHTTP(w, r)
	})
}

// timingSink is the uplink.Sink between the simulated uplinks and the
// collector: it times every Ingest call (and records a span when traced).
type timingSink struct {
	next interface{ Ingest(wire.Batch) error }
	rec  *recorder
	durs []time.Duration
}

func (s *timingSink) Ingest(b wire.Batch) error {
	var id int32
	if s.rec != nil {
		id = s.rec.begin("sink.Ingest")
	}
	start := time.Now()
	err := s.next.Ingest(b)
	s.durs = append(s.durs, time.Since(start))
	if s.rec != nil {
		s.rec.end(id)
	}
	return err
}

// spanStats summarises recorded spans for the per-layer metrics.
type spanStats struct {
	spans []span
}

func (st spanStats) dur(i int) time.Duration { return st.spans[i].end - st.spans[i].start }

// byName returns the durations (µs) of closed spans named name.
func (st spanStats) byName(name string) []float64 {
	var out []float64
	for i, s := range st.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(st.dur(i))/float64(time.Microsecond))
		}
	}
	return out
}

// selfUS returns, for each closed span matched by keep, its duration
// minus the durations of its direct children, in µs.
func (st spanStats) selfUS(keep func(name string) bool) []float64 {
	child := make(map[int32]time.Duration)
	for i, s := range st.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += st.dur(i)
		}
	}
	var out []float64
	for i, s := range st.spans {
		if keep(s.name) && s.end >= 0 {
			out = append(out, float64(st.dur(i)-child[int32(i)])/float64(time.Microsecond))
		}
	}
	return out
}

// containedSelfUS returns, for each closed span named outer, its duration
// minus every closed span named inner that lies inside its interval on
// any goroutine — the self time of a hop whose children run on another
// server's goroutines (valid while outer spans do not overlap).
func (st spanStats) containedSelfUS(outer, inner string) []float64 {
	var inners []span
	for _, s := range st.spans {
		if s.name == inner && s.end >= 0 {
			inners = append(inners, s)
		}
	}
	var out []float64
	for i, s := range st.spans {
		if s.name != outer || s.end < 0 {
			continue
		}
		self := st.dur(i)
		for _, c := range inners {
			if c.start >= s.start && c.end <= s.end {
				self -= c.end - c.start
			}
		}
		out = append(out, float64(self)/float64(time.Microsecond))
	}
	return out
}
