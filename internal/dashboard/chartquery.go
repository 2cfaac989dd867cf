package dashboard

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
)

// Chart geometry bounds. Width is both pixels and bucket count — one
// QueryRange bucket per pixel column — so clamping it bounds the
// response size no matter what the client asks for.
const (
	minChartWidth     = 64
	maxChartWidth     = 2048
	defaultChartWidth = 640
)

// chartQuery is the validated, clamped form of a chart request shared
// by the SVG and JSON endpoints. Invariants after a nil-error parse:
// 0 <= From <= To; Width in [minChartWidth, maxChartWidth]; either
// Step > 0 with at most maxChartWidth buckets over the finite range
// [From, To], or Step == 0 meaning "raw query" (then To may be
// unbounded); Agg is a known aggregate.
type chartQuery struct {
	Metric  string
	Matcher tsdb.Labels
	From    float64
	To      float64
	Width   int
	Step    float64
	Agg     tsdb.Agg
}

// parseChartQuery validates chart parameters (node, from, to, width,
// step, agg) against the invariants above. maxTS substitutes for a
// missing `to`. Any malformed value is an error — the handlers answer
// 400 rather than guessing.
func parseChartQuery(q url.Values, metric string, maxTS float64) (chartQuery, error) {
	cq := chartQuery{
		Metric:  metric,
		Matcher: tsdb.Labels{},
		Width:   defaultChartWidth,
		Agg:     tsdb.AggAvg,
	}
	if metric == "" {
		return cq, fmt.Errorf("dashboard: empty metric name")
	}
	if nodeParam := q.Get("node"); nodeParam != "" {
		id, err := collector.ParseNodeID(nodeParam)
		if err != nil {
			return cq, err
		}
		cq.Matcher["node"] = id.String()
	}
	from, err := parseTS(q, "from", 0)
	if err != nil {
		return cq, err
	}
	to, err := parseTS(q, "to", maxTS)
	if err != nil {
		return cq, err
	}
	if from < 0 {
		from = 0
	}
	if to < from {
		return cq, fmt.Errorf("dashboard: to=%g before from=%g", to, from)
	}
	cq.From, cq.To = from, to
	if v := q.Get("width"); v != "" {
		w, err := strconv.Atoi(v)
		if err != nil {
			return cq, fmt.Errorf("dashboard: bad width %q", v)
		}
		cq.Width = min(max(w, minChartWidth), maxChartWidth)
	}
	if v := q.Get("agg"); v != "" {
		if cq.Agg = tsdb.Agg(v); !cq.Agg.Valid() {
			return cq, fmt.Errorf("dashboard: unknown agg %q", v)
		}
	}
	if q.Get("to") == "" && to <= from {
		// MaxTS doesn't bound the range (e.g. points appended straight to
		// the store, no ingest yet). Fall back to an unbounded raw query
		// so whatever the store holds still charts.
		cq.To = math.MaxFloat64
		cq.Step = 0
		return cq, nil
	}
	// Step defaults to display resolution; an explicit step is clamped
	// so a query can never demand more than maxChartWidth buckets.
	span := cq.To - cq.From
	cq.Step = span / float64(cq.Width)
	if v := q.Get("step"); v != "" {
		step, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(step) || math.IsInf(step, 0) || step <= 0 {
			return cq, fmt.Errorf("dashboard: bad step %q", v)
		}
		cq.Step = math.Max(step, span/maxChartWidth)
	}
	return cq, nil
}

// parseTS reads one finite, non-negative-range timestamp parameter.
func parseTS(q url.Values, key string, def float64) (float64, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	ts, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return 0, fmt.Errorf("dashboard: bad %s %q", key, v)
	}
	return ts, nil
}

// results runs the parsed query against the View's store. The ranged
// path goes through QueryRange, so the store answers from the coarsest
// rollup tier that satisfies the step — charting a week of telemetry
// reads rollup chunks, not millions of raw points.
func (cq chartQuery) results(db tsdb.Querier) []tsdb.Result {
	if cq.Step > 0 {
		return db.QueryRange(cq.Metric, cq.Matcher, cq.From, cq.To, cq.Step, cq.Agg)
	}
	return db.Query(cq.Metric, cq.Matcher, cq.From, cq.To)
}

// chartJSON is the wire shape of /chart/{metric}.json: the effective
// (clamped) query echoed back, plus each matching series downsampled
// to at most Width points.
type chartJSON struct {
	Metric string           `json:"metric"`
	From   float64          `json:"from"`
	To     float64          `json:"to"`
	Step   float64          `json:"step"`
	Agg    tsdb.Agg         `json:"agg"`
	Series []chartSeriesOut `json:"series"`
	// Reduced carries the scalar answer when ?reduce= asked for one.
	Reduced *float64 `json:"reduced,omitempty"`
}

type chartSeriesOut struct {
	Labels tsdb.Labels  `json:"labels"`
	Points [][2]float64 `json:"points"`
}

// handleChartJSON serves `/chart/{metric}.json` — the machine-readable
// twin of the SVG chart, for external dashboards and the read-mode
// load generator. `?reduce=<agg>` skips the series entirely and pushes
// a whole-range scalar down to tsdb.AggregateRange (raw tier only, no
// point materialisation).
func (s *Server) handleChartJSON(w http.ResponseWriter, r *http.Request, metric string) {
	cq, err := parseChartQuery(r.URL.Query(), metric, s.coll.MaxTS())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := chartJSON{
		Metric: cq.Metric, From: cq.From, To: cq.To, Step: cq.Step, Agg: cq.Agg,
	}
	if v := r.URL.Query().Get("reduce"); v != "" {
		agg := tsdb.Agg(v)
		if !agg.Valid() {
			http.Error(w, fmt.Sprintf("dashboard: unknown reduce %q", v), http.StatusBadRequest)
			return
		}
		red := s.coll.DB().AggregateRange(cq.Metric, cq.Matcher, cq.From, cq.To, agg)
		if !math.IsNaN(red) {
			out.Reduced = &red
		}
		out.Series = []chartSeriesOut{}
	} else {
		out.Series = make([]chartSeriesOut, 0, 4)
		for _, res := range cq.results(s.coll.DB()) {
			so := chartSeriesOut{Labels: res.Labels, Points: make([][2]float64, 0, len(res.Points))}
			for _, p := range res.Points {
				so.Points = append(so.Points, [2]float64{p.TS, p.Value})
			}
			out.Series = append(out.Series, so)
		}
	}
	// Encode before answering: a non-finite sample cannot be JSON, and
	// that is a 500 (never cached), not a 200 with an empty body.
	size := 128
	for _, so := range out.Series {
		size += 64 + 40*len(so.Points)
	}
	body, err := appendChartJSON(make([]byte, 0, size), &out)
	if err != nil {
		http.Error(w, "dashboard: encode chart: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n')) //nolint:errcheck // client went away
}

// handleChart dispatches `/chart/{metric}.svg` and `.json` on suffix.
func (s *Server) handleChart(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("metric")
	switch {
	case strings.HasSuffix(name, ".svg"):
		s.handleChartSVG(w, r, strings.TrimSuffix(name, ".svg"))
	case strings.HasSuffix(name, ".json"):
		s.handleChartJSON(w, r, strings.TrimSuffix(name, ".json"))
	default:
		http.Error(w, "dashboard: chart path must end in .svg or .json", http.StatusBadRequest)
	}
}
