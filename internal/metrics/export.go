package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteText renders the registry in Prometheus text exposition format
// (0.0.4): families in name order, children in label-value order, so
// the output is deterministic and diffable.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the exposition as a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.WriteText(&sb) //nolint:errcheck // strings.Builder cannot fail
	return sb.String()
}

// Handler serves the exposition over HTTP (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w) //nolint:errcheck // client went away
	})
}

func (f *family) writeText(w io.Writer) error {
	if err := WriteHeader(w, f.name, f.help, f.kind); err != nil {
		return err
	}
	if f.fn != nil {
		return WriteSample(w, f.name, nil, nil, f.fn())
	}
	for _, m := range f.sortedChildren() {
		var err error
		switch inst := m.(type) {
		case *Counter:
			err = WriteSample(w, f.name, f.labelNames, inst.labelValues(), inst.Value())
		case *Gauge:
			err = WriteSample(w, f.name, f.labelNames, inst.labelValues(), inst.Value())
		case *Histogram:
			err = inst.writeText(w, f.name, f.labelNames)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteHeader writes a family's "# HELP" and "# TYPE" exposition lines.
// Families kept outside a Registry (state rendered on demand, like the
// collector's mesh-domain gauges) render through WriteHeader and
// WriteSample, so every exposition in the process shares one escaping
// and value format.
func WriteHeader(w io.Writer, name, help string, kind Kind) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, kind)
	return err
}

// WriteSample writes one exposition sample line: name, the label pairs
// names[i]="values[i]" in the given order (none: no braces), and v.
func WriteSample(w io.Writer, name string, names, values []string, v float64) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labelString(names, values, ""), fmtValue(v))
	return err
}

// writeText renders the histogram's cumulative buckets, sum and count.
func (h *Histogram) writeText(w io.Writer, name string, labelNames []string) error {
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		le := strconv.FormatFloat(ub, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(labelNames, h.values, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.upper)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(labelNames, h.values, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, labelString(labelNames, h.values, ""), fmtValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		name, labelString(labelNames, h.values, ""), h.count.Load())
	return err
}

// labelString renders {k="v",...}, appending the le pair when non-empty;
// an empty label set with no le renders as the empty string.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// --- programmatic snapshot (dashboard health panel) ---

// Sample is one exported time-series value.
type Sample struct {
	LabelNames  []string
	LabelValues []string
	Value       float64 // counters and gauges
	Hist        *HistogramSnapshot
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Upper  []float64 // bucket upper bounds
	Counts []uint64  // per-bucket counts (non-cumulative), len(Upper)+1
	Sum    float64
	Count  uint64
}

// Quantile estimates the q-quantile (0..1) from the snapshot by linear
// interpolation within the containing bucket; Histogram.Quantile is
// this estimate over a snapshot taken at the call.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Upper[i-1]
			}
			if i == len(s.Upper) {
				// +Inf bucket: the bound is unknowable; report its lower edge.
				return lower
			}
			return lower + (s.Upper[i]-lower)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return s.Upper[len(s.Upper)-1]
}

// FamilySnapshot is a point-in-time copy of one family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// snapshot copies one family's current state.
func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
	if f.fn != nil {
		fs.Samples = append(fs.Samples, Sample{Value: f.fn()})
		return fs
	}
	for _, m := range f.sortedChildren() {
		smp := Sample{LabelNames: f.labelNames, LabelValues: m.labelValues()}
		switch inst := m.(type) {
		case *Counter:
			smp.Value = inst.Value()
		case *Gauge:
			smp.Value = inst.Value()
		case *Histogram:
			smp.Hist = inst.snapshot()
		}
		fs.Samples = append(fs.Samples, smp)
	}
	return fs
}

// Snapshot copies the registry's current state, families in name order
// and samples in label-value order — the read API behind the
// dashboard's server-health panel.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

// Family returns the snapshot of one family by name, or false.
func (r *Registry) Family(name string) (FamilySnapshot, bool) {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return FamilySnapshot{}, false
	}
	return f.snapshot(), true
}
