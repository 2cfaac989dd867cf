package dashboard

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// budgetCollector is a fixed 300-node collector in dash_read's shape
// (1m/1h rollups on): every node reports two hours of telemetry, one
// batch per 30 minutes, each with a heartbeat, a stats summary, a
// routing table of eight entries and the HELLOs it heard from its ten
// nearest ring neighbours.
func budgetCollector(t testing.TB) *collector.Collector {
	t.Helper()
	db := tsdb.New()
	db.ConfigureTiers(tsdb.Retention{})
	c := collector.New(db, collector.DefaultConfig())
	const nodes = 300
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 4; step++ {
		for n := 1; n <= nodes; n++ {
			id := wire.NodeID(n)
			ts := float64(step*1800) + float64(n*1800)/nodes
			b := wire.Batch{Node: id, SeqNo: uint64(step + 1), SentAt: ts,
				Heartbeats: []wire.Heartbeat{{TS: ts, Node: id, UptimeS: ts, Firmware: fmt.Sprintf("fw-%d", n%3)}},
				Stats: []wire.NodeStats{{TS: ts, Node: id, UptimeS: ts, HelloSent: uint64(step), DataSent: uint64(10 * step),
					Delivered: uint64(9 * step), RouteCount: 8, QueueLen: n % 4, DutyCycleUsed: 0.0001 * float64(n%97)}},
			}
			rs := wire.RouteSnapshot{TS: ts, Node: id}
			for k := 1; k <= 8; k++ {
				dst := wire.NodeID((n-1+k*7)%nodes + 1)
				rs.Routes = append(rs.Routes, wire.RouteEntry{Dst: dst, NextHop: wire.NodeID((n+k)%nodes + 1),
					Metric: uint8(k), AgeS: float64(10 * k), SNRdB: float64(k) / 4})
			}
			b.Routes = []wire.RouteSnapshot{rs}
			for _, off := range []int{1, 2, 3, 4, 5, nodes - 1, nodes - 2, nodes - 3, nodes - 4, nodes - 5} {
				tx := wire.NodeID((n-1+off)%nodes + 1)
				b.Packets = append(b.Packets, hello(id, tx, ts-1, -70-50*rng.Float64()))
			}
			if err := c.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// epochView is a View whose epoch the test advances, so each read it
// makes can be a cache miss or a hit at will.
type epochView struct {
	collector.View
	epoch atomic.Uint64
}

func (v *epochView) Epoch() uint64 { return v.epoch.Load() }

// nopWriter is a ResponseWriter that keeps only its header map, so a
// read's allocations are the server's own.
type nopWriter struct {
	h    http.Header
	code int
}

func (w *nopWriter) Header() http.Header { return w.h }

func (w *nopWriter) WriteHeader(code int) { w.code = code }

func (w *nopWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// TestPageAllocBudgets holds each page dash_read requests to its
// allocation budget over a fixed 300-node collector: the allocations of
// one read through the handler, the response cache included, on a miss
// (the epoch advanced since the last read) and on a hit. A budget may be
// lowered in any change; raising one needs its cause stated.
func TestPageAllocBudgets(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	v := &epochView{View: budgetCollector(t)}
	s := New(v, nil, Config{StreamTick: time.Hour})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		route     string
		miss, hit float64
	}{
		// A hit allocates only what the router's path match for
		// {id} and {metric} does.
		{"/", 11, 0},
		{"/node/N0042", 6, 1},
		{"/chart/mesh_packet_rssi.json?node=N0042&from=3600&to=7200", 18, 1},
		{"/chart/node_duty_cycle.json?node=N0042&from=0&to=7200", 18, 1},
		{"/topology", 20, 0},
		{"/traffic", 6, 0},
		{"/alerts", 5, 0},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.route, nil)
		w := &nopWriter{h: http.Header{}}
		read := func() {
			clear(w.h)
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("GET %s: %d", tc.route, w.code)
			}
		}
		read() // first render: the pooled buffers grow to the page
		miss := testing.AllocsPerRun(50, func() {
			v.epoch.Add(1)
			read()
		})
		hit := testing.AllocsPerRun(50, read)
		t.Logf("GET %s: miss %v, hit %v allocations", tc.route, miss, hit)
		if miss > tc.miss || hit > tc.hit {
			t.Errorf("GET %s: %v allocations on a miss (budget %v), %v on a hit (budget %v)",
				tc.route, miss, tc.miss, hit, tc.hit)
		}
	}
}
