package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// APIHandler returns the collector's JSON API:
//
//	POST /api/v1/ingest          — upload one wire.Batch (JSON or binary)
//	GET  /api/v1/nodes           — node registry
//	GET  /api/v1/nodes/{id}      — one node (id like N0001)
//	GET  /api/v1/recent?limit=N  — newest packet records
//	GET  /api/v1/stats           — collector counters
//	GET  /api/v1/query?metric=&from=&to=&label.k=v[&step=&agg=] — series (optionally downsampled)
//	GET  /api/v1/metrics         — Prometheus text exposition
//	GET  /api/v1/export?from=&to= — recent packet records as JSONL
func (c *Collector) APIHandler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, c.instrumented(route, h))
	}
	handle("POST /api/v1/ingest", "ingest", c.handleIngest)
	handle("GET /api/v1/nodes", "nodes", c.handleNodes)
	handle("GET /api/v1/nodes/{id}", "node", c.handleNode)
	handle("GET /api/v1/recent", "recent", c.handleRecent)
	handle("GET /api/v1/stats", "stats", c.handleStats)
	handle("GET /api/v1/query", "query", c.handleQuery)
	handle("GET /api/v1/metrics", "metrics", c.ServeMetrics)
	handle("GET /api/v1/export", "export", c.handleExport)
	return mux
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrumented wraps one API route with the per-route request counter
// and latency histogram. The histogram child is resolved at wiring
// time; only the {route,code} counter is looked up per request (the
// status code is not known until the handler returns).
func (c *Collector) instrumented(route string, next http.HandlerFunc) http.Handler {
	hist := c.inst.httpLatency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		hist.Observe(time.Since(start).Seconds())
		c.inst.httpRequests.With(route, strconv.Itoa(sw.status)).Inc()
	})
}

// writeJSON answers status with v as indented JSON. It encodes before
// writing the header, so a value JSON cannot hold (a NaN that reached
// the store) is answered 500 with the encoder's error, not 200 with an
// empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("collector: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	batch, body, err := wire.ReadBatch(r.Body, r.ContentLength)
	if errors.Is(err, wire.ErrBatchTooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("collector: %w", err))
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Ingest(batch); err != nil {
		// A durability failure is the server's problem, not the batch's:
		// tell the client to retry rather than drop the data.
		if errors.Is(err, ErrDurability) {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	c.addIngestBytes(len(body))
	writeAccepted(w, batch.Len())
}

// writeAccepted answers an ingested batch with the bytes writeJSON
// writes for {"accepted": n}, without reflection.
func writeAccepted(w http.ResponseWriter, n int) {
	b := make([]byte, 0, 48)
	b = append(b, "{\n  \"accepted\": "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // client went away
}

func (c *Collector) handleNodes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Nodes())
}

func (c *Collector) handleNode(w http.ResponseWriter, r *http.Request) {
	id, err := ParseNodeID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	info, ok := c.Node(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("collector: unknown node %v", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Collector) handleRecent(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if s := r.URL.Query().Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("collector: bad limit %q", s))
			return
		}
		limit = v
	}
	writeJSON(w, http.StatusOK, c.Recent(limit))
}

func (c *Collector) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

// handleExport streams the retained packet records as JSON lines,
// optionally bounded by from/to record time — the raw-data escape hatch
// for offline analysis.
func (c *Collector) handleExport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := floatParam(q, "from", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	to, err := floatParam(q, "to", math.MaxFloat64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	records := c.Recent(0)
	// Recent returns newest-first; export oldest-first for replayability.
	for i := len(records) - 1; i >= 0; i-- {
		p := records[i]
		if p.TS < from || p.TS > to {
			continue
		}
		if err := enc.Encode(p); err != nil {
			return // client went away
		}
	}
}

func (c *Collector) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("collector: metric parameter required"))
		return
	}
	from, err := floatParam(q, "from", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	to, err := floatParam(q, "to", c.MaxTS())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	matcher := tsdb.Labels{}
	for key, vals := range q {
		if len(key) > 6 && key[:6] == "label." && len(vals) > 0 {
			matcher[key[6:]] = vals[0]
		}
	}
	// Optional server-side downsampling: step (seconds) + agg. The
	// bucketed path goes through QueryRange, which aggregates straight
	// off compressed chunks and may answer from a rollup tier when the
	// resolution (or raw eviction) allows.
	var results []tsdb.Result
	if stepStr := q.Get("step"); stepStr != "" {
		step, err := floatParam(q, "step", 0)
		if err != nil || step <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("collector: bad step %q", stepStr))
			return
		}
		agg := tsdb.Agg(q.Get("agg"))
		if agg == "" {
			agg = tsdb.AggAvg
		}
		if !agg.Valid() {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("collector: unknown agg %q", agg))
			return
		}
		results = c.db.QueryRange(metric, matcher, from, to, step, agg)
	} else {
		results = c.db.Query(metric, matcher, from, to)
	}
	writeJSON(w, http.StatusOK, results)
}

// floatParam parses the finite float query parameter key, def when it
// is absent.
func floatParam(q url.Values, key string, def float64) (float64, error) {
	s := q.Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("collector: bad %s %q", key, s)
	}
	return v, nil
}
