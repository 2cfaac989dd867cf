package dashboard

import (
	"slices"
	"strconv"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// jsonOut appends JSON the way encoding/json writes it, without
// reflection: strings and floats go through the wire package's writers,
// which match json.Marshal byte for byte. The first non-finite float
// sets err, with the error json.Marshal would return.
type jsonOut struct {
	b   []byte
	err error
}

func (j *jsonOut) raw(s string) { j.b = append(j.b, s...) }

func (j *jsonOut) str(s string) { j.b = wire.AppendJSONString(j.b, s) }

func (j *jsonOut) float(f float64) {
	if j.err != nil {
		return
	}
	j.b, j.err = wire.AppendJSONFloat(j.b, f)
}

// appendChartJSON appends c as json.Marshal encodes it. On a non-finite
// value it returns dst unextended and Marshal's error.
func appendChartJSON(dst []byte, c *chartJSON) ([]byte, error) {
	j := jsonOut{b: dst}
	j.raw(`{"metric":`)
	j.str(c.Metric)
	j.raw(`,"from":`)
	j.float(c.From)
	j.raw(`,"to":`)
	j.float(c.To)
	j.raw(`,"step":`)
	j.float(c.Step)
	j.raw(`,"agg":`)
	j.str(string(c.Agg))
	j.raw(`,"series":`)
	switch {
	case c.results != nil:
		j.raw("[")
		for i := range c.results {
			if i > 0 {
				j.raw(",")
			}
			j.result(&c.results[i])
		}
		j.raw("]")
	case c.Series == nil:
		j.raw("null")
	default:
		j.raw("[")
		for i := range c.Series {
			if i > 0 {
				j.raw(",")
			}
			j.series(&c.Series[i])
		}
		j.raw("]")
	}
	if c.Reduced != nil {
		j.raw(`,"reduced":`)
		j.float(*c.Reduced)
	}
	j.raw("}")
	if j.err != nil {
		return dst, j.err
	}
	return j.b, nil
}

func (j *jsonOut) series(s *chartSeriesOut) {
	j.labels(s.Labels)
	if s.Points == nil {
		j.raw("null}")
		return
	}
	j.raw("[")
	for i, p := range s.Points {
		j.point(i, p[0], p[1])
	}
	j.raw("]}")
}

// result writes a store answer as a series, its points as [ts, value]
// pairs, as a chartSeriesOut holding them is written.
func (j *jsonOut) result(r *tsdb.Result) {
	j.labels(r.Labels)
	j.raw("[")
	for i, p := range r.Points {
		j.point(i, p.TS, p.Value)
	}
	j.raw("]}")
}

// labels opens a series object up to its points' value.
func (j *jsonOut) labels(l tsdb.Labels) {
	j.raw(`{"labels":`)
	if l == nil {
		j.raw("null")
	} else {
		// encoding/json writes map keys sorted.
		var scratch [8]string
		keys := scratch[:0]
		for k := range l {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		j.raw("{")
		for i, k := range keys {
			if i > 0 {
				j.raw(",")
			}
			j.str(k)
			j.raw(":")
			j.str(l[k])
		}
		j.raw("}")
	}
	j.raw(`,"points":`)
}

// point writes the i-th point of a series.
func (j *jsonOut) point(i int, ts, v float64) {
	if i > 0 {
		j.raw(",")
	}
	j.raw("[")
	j.float(ts)
	j.raw(",")
	j.float(v)
	j.raw("]")
}

// appendDeltaJSON appends d as json.Marshal encodes it. On a non-finite
// MaxTS it returns dst unextended and Marshal's error.
func appendDeltaJSON(dst []byte, d *delta) ([]byte, error) {
	j := jsonOut{b: dst}
	j.raw(`{"epoch":`)
	j.b = strconv.AppendUint(j.b, d.Epoch, 10)
	j.raw(`,"max_ts":`)
	j.float(d.MaxTS)
	if len(d.Panels) > 0 {
		j.raw(`,"panels":[`)
		for i, p := range d.Panels {
			if i > 0 {
				j.raw(",")
			}
			j.str(p)
		}
		j.raw("]")
	}
	if d.Resync {
		j.raw(`,"resync":true`)
	}
	j.raw("}")
	if j.err != nil {
		return dst, j.err
	}
	return j.b, nil
}
