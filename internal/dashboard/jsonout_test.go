package dashboard

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"lorameshmon/internal/tsdb"
)

// jsonEdgeFloats are the floats where an ES6 formatter can part ways
// with encoding/json: ±0, the 1e-6 and 1e21 exponent-form bounds and
// their neighbours, quarter-grid values, subnormals and the extremes.
var jsonEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e20,
	0.25, -97.25, 3.5, 1.0 / 3, 123456.789, 1 << 53, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// jsonHostileText covers every escape encoding/json applies: quotes,
// backslashes, control bytes, HTML-unsafe <, >, &, invalid UTF-8 and
// U+2028/U+2029.
var jsonHostileText = []string{
	"", "node", "N0001", `"quoted"`, `back\slash`, "<script>&amp;</script>", "\x00\x01\x1f\b\f\n\r\t",
	"\xff\xfe", "  ", "héllo wörld", "a\x7fb", "\u2028\u2029",
}

func randJSONFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return jsonEdgeFloats[rng.Intn(len(jsonEdgeFloats))]
	case 1:
		return float64(rng.Intn(4000)-2000) / 4
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

func randChart(rng *rand.Rand) chartJSON {
	text := func() string { return jsonHostileText[rng.Intn(len(jsonHostileText))] }
	c := chartJSON{
		Metric: text(), From: randJSONFloat(rng), To: randJSONFloat(rng), Step: randJSONFloat(rng),
		Agg: tsdb.Agg(text()),
	}
	if rng.Intn(8) > 0 {
		c.Series = []chartSeriesOut{}
	}
	for i := rng.Intn(4); i > 0; i-- {
		var s chartSeriesOut
		if rng.Intn(8) > 0 {
			s.Labels = tsdb.Labels{}
			for k := rng.Intn(4); k > 0; k-- {
				s.Labels[text()] = text()
			}
		}
		if rng.Intn(8) > 0 {
			s.Points = [][2]float64{}
		}
		for k := rng.Intn(6); k > 0; k-- {
			s.Points = append(s.Points, [2]float64{randJSONFloat(rng), randJSONFloat(rng)})
		}
		c.Series = append(c.Series, s)
	}
	if rng.Intn(2) == 0 {
		r := randJSONFloat(rng)
		c.Reduced = &r
	}
	return c
}

// checkChartJSON asserts appendChartJSON writes json.Marshal's bytes,
// or fails with Marshal's error text and leaves dst unextended.
func checkChartJSON(t *testing.T, c chartJSON) {
	t.Helper()
	want, wantErr := json.Marshal(c)
	prefix := []byte("prefix")
	got, err := appendChartJSON(prefix, &c)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: error %v, json.Marshal error %v", c, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() || string(got) != "prefix" {
			t.Fatalf("%+v: error %q and output %q, want %q and dst unextended", c, err, got, wantErr)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("chart JSON differs from json.Marshal:\n got %s\nwant %s", got[len(prefix):], want)
	}
}

func checkDeltaJSON(t *testing.T, d delta) {
	t.Helper()
	want, wantErr := json.Marshal(d)
	got, err := appendDeltaJSON(nil, &d)
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%+v: error %v, json.Marshal error %v", d, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delta JSON differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestChartJSONMatchesMarshal pins the chart and SSE delta appenders to
// json.Marshal on random charts: hostile label and metric text, nil and
// empty series, labels and points, ±0, 1e-7, 1e21 and non-finite
// samples (which must fail exactly as Marshal fails).
func TestChartJSONMatchesMarshal(t *testing.T) {
	for _, f := range append(jsonEdgeFloats, math.NaN(), math.Inf(1), math.Inf(-1)) {
		checkChartJSON(t, chartJSON{Metric: "m", Series: []chartSeriesOut{{Labels: tsdb.Labels{"node": "N0001"}, Points: [][2]float64{{1, f}}}}})
		checkChartJSON(t, chartJSON{Metric: "m", From: f, Series: []chartSeriesOut{}, Reduced: &f})
		checkDeltaJSON(t, delta{Epoch: 7, MaxTS: f})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		c := randChart(rng)
		if i%7 == 0 && len(c.Series) > 0 && len(c.Series[0].Points) > 0 {
			c.Series[0].Points[0][1] = math.NaN()
		}
		checkChartJSON(t, c)
		d := delta{Epoch: rng.Uint64(), MaxTS: randJSONFloat(rng), Resync: rng.Intn(2) == 0}
		for k := rng.Intn(4); k > 0; k-- {
			d.Panels = append(d.Panels, jsonHostileText[rng.Intn(len(jsonHostileText))])
		}
		if rng.Intn(4) == 0 {
			d.Panels = []string{}
		}
		checkDeltaJSON(t, d)
	}
}

// FuzzChartJSON drives the chart and delta appenders' string and float
// paths with arbitrary input against json.Marshal.
func FuzzChartJSON(f *testing.F) {
	for _, s := range jsonHostileText {
		f.Add(s, s, 1.0, -97.25, uint64(3))
	}
	f.Add("node", "N0001", math.Copysign(0, -1), 1e-7, uint64(0))
	f.Add("x", "y", 1e21, math.NaN(), uint64(1<<63))
	f.Fuzz(func(t *testing.T, key, val string, a, b float64, epoch uint64) {
		checkChartJSON(t, chartJSON{
			Metric: val, From: a, To: b, Step: a, Agg: tsdb.Agg(key),
			Series:  []chartSeriesOut{{Labels: tsdb.Labels{key: val, val: key}, Points: [][2]float64{{a, b}, {b, a}}}},
			Reduced: &b,
		})
		checkDeltaJSON(t, delta{Epoch: epoch, MaxTS: a, Panels: []string{key, val}, Resync: epoch%2 == 0})
	})
}
