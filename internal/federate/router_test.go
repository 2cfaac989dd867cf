package federate

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/uplink"
	"lorameshmon/internal/wire"
)

// testBatch builds a small but multi-record batch for node with upload
// sequence seq; record timestamps derive from seq so batches stay
// distinguishable in the store.
func testBatch(node wire.NodeID, seq uint64) wire.Batch {
	ts := float64(seq) * 10
	b := wire.Batch{
		Node: node, SeqNo: seq, SentAt: ts,
		Packets: []wire.PacketRecord{
			{TS: ts, Node: node, Event: wire.EventTx, Type: "DATA",
				Src: node, Dst: 1, Via: 1, Seq: uint16(seq), TTL: 10, Size: 40, AirtimeMS: 56.6},
			{TS: ts + 1, Node: node, Event: wire.EventRx, Type: "HELLO",
				Src: node%7 + 1, Dst: wire.BroadcastID, Via: wire.BroadcastID,
				Seq: uint16(seq), TTL: 1, Size: 23, RSSIdBm: -82, SNRdB: 6, ForUs: true},
		},
		Heartbeats: []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts, Firmware: "fw1"}},
	}
	// Normalise through the binary codec (as every real uplink batch is)
	// so float fields carry codec precision on every path — the WAL
	// replays batches through this codec, and handoff tests compare
	// replayed state against directly ingested state bit-for-bit.
	enc, err := wire.EncodeBatchBinary(b)
	if err != nil {
		panic(err)
	}
	dec, err := wire.DecodeBatchBinary(enc)
	if err != nil {
		panic(err)
	}
	return dec
}

// member is one federation member under test: a real collector behind
// its real HTTP ingest handler, optionally wrapped in a fault injector.
type member struct {
	name string
	c    *collector.Collector
	srv  *httptest.Server

	// fault injection, checked per request by the wrapper handler
	fail503    atomic.Int64 // answer 503 for this many requests
	fail400    atomic.Int64 // answer 400 for this many requests
	dropConn   atomic.Int64 // ingest, then kill the connection, this many times
	sleep      atomic.Int64 // nanoseconds of delay before answering
	requests   atomic.Int64 // total ingest requests observed
	alwaysFail atomic.Bool
}

func newMember(t *testing.T, name string) *member {
	t.Helper()
	m := &member{name: name, c: collector.New(tsdb.New(), collector.DefaultConfig())}
	inner := m.c.APIHandler()
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/ingest") {
			m.requests.Add(1)
			// The failure decision is captured at entry, so a handler that
			// outlives its client's timeout (the sleep fault) cannot change
			// its mind after the fault is healed and silently ingest.
			fail := m.alwaysFail.Load() || m.fail503.Add(-1) >= 0
			if d := m.sleep.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if fail {
				http.Error(w, "injected outage", http.StatusServiceUnavailable)
				return
			}
			if m.fail400.Add(-1) >= 0 {
				http.Error(w, "injected rejection", http.StatusBadRequest)
				return
			}
			if m.dropConn.Add(-1) >= 0 {
				// Ingest for real, then tear the connection down before any
				// response bytes: the router cannot tell this from a lost
				// request, so it must retry — and dedup must absorb it.
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Error("response writer is not a hijacker")
					return
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					t.Errorf("hijack: %v", err)
					return
				}
				conn.Close()
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(m.srv.Close)
	return m
}

func (m *member) ingestURL() string { return m.srv.URL + "/api/v1/ingest" }

func newTestRouter(t *testing.T, cfg RouterConfig, members ...*member) (*Router, *httptest.Server) {
	t.Helper()
	for _, m := range members {
		cfg.Members = append(cfg.Members, Member{Name: m.name, URL: m.ingestURL()})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return r, srv
}

// counterValue reads one counter sample back out of the registry.
func counterValue(t *testing.T, reg *metrics.Registry, family string, labelValues ...string) float64 {
	t.Helper()
	fam, ok := reg.Family(family)
	if !ok {
		t.Fatalf("family %s not registered", family)
	}
	for _, s := range fam.Samples {
		if len(labelValues) == 0 || (len(s.LabelValues) > 0 && s.LabelValues[0] == labelValues[0]) {
			return s.Value
		}
	}
	return 0
}

func TestRouterPartitionsIngestAcrossMembers(t *testing.T) {
	m1, m2 := newMember(t, "m1"), newMember(t, "m2")
	router, srv := newTestRouter(t, RouterConfig{}, m1, m2)
	byName := map[string]*member{"m1": m1, "m2": m2}

	const nodes = 24
	up := uplink.NewHTTP(srv.URL + "/api/v1/ingest")
	for id := wire.NodeID(1); id <= nodes; id++ {
		if err := up.SendSync(testBatch(id, 1)); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}

	// Every node's data sits on exactly the ring owner, nowhere else.
	for id := wire.NodeID(1); id <= nodes; id++ {
		owner := router.Ring().Owner(id)
		for name, m := range byName {
			_, present := m.c.Node(id)
			if (name == owner) != present {
				t.Fatalf("node %d: owner=%s but present-on-%s=%v", id, owner, name, present)
			}
		}
	}
	total := m1.c.Stats().BatchesIngested + m2.c.Stats().BatchesIngested
	if total != nodes {
		t.Fatalf("members ingested %d batches, want %d", total, nodes)
	}
	if m1.c.Stats().BatchesIngested == 0 || m2.c.Stats().BatchesIngested == 0 {
		t.Fatalf("partitioning degenerate: %d/%d",
			m1.c.Stats().BatchesIngested, m2.c.Stats().BatchesIngested)
	}
	if got := counterValue(t, router.Metrics(), "meshmon_federate_batches_total", "forwarded"); got != nodes {
		t.Fatalf("forwarded counter = %v, want %d", got, nodes)
	}

	// The members endpoint lists the ring.
	resp, err := http.Get(srv.URL + "/api/v1/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		VirtualNodes int `json:"virtual_nodes"`
		Members      []struct{ Name, URL string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.VirtualNodes != DefaultVirtualNodes || len(listing.Members) != 2 {
		t.Fatalf("members listing = %+v", listing)
	}
}

// The router must forward the original encoding untouched: a binary
// agent upload stays binary all the way to the owning collector.
func TestRouterForwardsBinaryUploads(t *testing.T) {
	m1, m2 := newMember(t, "m1"), newMember(t, "m2")
	router, srv := newTestRouter(t, RouterConfig{}, m1, m2)

	up := uplink.NewHTTP(srv.URL + "/api/v1/ingest")
	up.Binary = true
	b := testBatch(3, 1)
	if err := up.SendSync(b); err != nil {
		t.Fatal(err)
	}
	owner := router.Ring().Owner(3)
	m := map[string]*member{"m1": m1, "m2": m2}[owner]
	info, ok := m.c.Node(3)
	if !ok || info.Records != uint64(b.Len()) {
		t.Fatalf("binary batch not ingested at owner %s: %+v", owner, info)
	}
}

// TestRouterFailurePaths drives the ingest path through downstream
// faults and asserts the contract end to end: bounded retry with
// backoff inside the router, 503 to the agent once the budget is spent,
// and — after the agent's own retransmit — exactly-once ingest thanks
// to the collector dedup machine.
func TestRouterFailurePaths(t *testing.T) {
	const node = wire.NodeID(9)
	batch := testBatch(node, 1)

	cases := []struct {
		name   string
		fault  func(m *member)
		heal   func(m *member)
		config RouterConfig

		wantFirstErr  bool  // first upload fails with ErrRejected (503)
		wantRequests  int64 // ingest requests the member saw for the first upload
		wantRetries   float64
		wantDupAfter  uint64 // NodeInfo.BatchesDup after everything settles
		retransmitted bool   // test retransmits the same batch (agent semantics)
	}{
		{
			name:         "outage_heals_within_retry_budget",
			fault:        func(m *member) { m.fail503.Store(2) },
			config:       RouterConfig{Attempts: 3, BackoffMin: time.Millisecond},
			wantRequests: 3, // 503, 503, 200
			wantRetries:  2,
		},
		{
			name:          "outage_outlives_retry_budget_agent_retransmits",
			fault:         func(m *member) { m.alwaysFail.Store(true) },
			heal:          func(m *member) { m.alwaysFail.Store(false) },
			config:        RouterConfig{Attempts: 2, BackoffMin: time.Millisecond},
			wantFirstErr:  true,
			wantRequests:  2,
			wantRetries:   1,
			retransmitted: true,
		},
		{
			name: "member_times_out_agent_retransmits",
			fault: func(m *member) {
				m.sleep.Store(int64(200 * time.Millisecond))
				m.alwaysFail.Store(true)
			},
			heal: func(m *member) {
				m.sleep.Store(0)
				m.alwaysFail.Store(false)
			},
			config: RouterConfig{Attempts: 2, BackoffMin: time.Millisecond,
				Client: &http.Client{Timeout: 50 * time.Millisecond}},
			wantFirstErr:  true,
			wantRequests:  2,
			wantRetries:   1,
			retransmitted: true,
		},
		{
			name:         "response_lost_after_ingest_no_double_ingest",
			fault:        func(m *member) { m.dropConn.Store(1) },
			config:       RouterConfig{Attempts: 3, BackoffMin: time.Millisecond},
			wantRequests: 2, // ingested-but-dropped, then the retry
			wantRetries:  1,
			wantDupAfter: 1, // the retry was a duplicate; dedup absorbed it
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m1, m2 := newMember(t, "m1"), newMember(t, "m2")
			router, srv := newTestRouter(t, tc.config, m1, m2)
			owner := map[string]*member{"m1": m1, "m2": m2}[router.Ring().Owner(node)]
			other := m1
			if owner == m1 {
				other = m2
			}
			tc.fault(owner)

			up := uplink.NewHTTP(srv.URL + "/api/v1/ingest")
			err := up.SendSync(batch)
			if tc.wantFirstErr {
				if !errors.Is(err, uplink.ErrRejected) {
					t.Fatalf("first upload err = %v, want ErrRejected", err)
				}
				if got := counterValue(t, router.Metrics(), "meshmon_federate_batches_total", "failed"); got != 1 {
					t.Fatalf("failed counter = %v, want 1", got)
				}
			} else if err != nil {
				t.Fatalf("first upload: %v", err)
			}
			if got := owner.requests.Load(); got != tc.wantRequests {
				t.Fatalf("owner saw %d requests, want %d", got, tc.wantRequests)
			}
			if got := counterValue(t, router.Metrics(), "meshmon_federate_retries_total"); got != tc.wantRetries {
				t.Fatalf("retries counter = %v, want %v", got, tc.wantRetries)
			}

			if tc.retransmitted {
				// The agent's buffered retry: the identical batch again,
				// after the outage clears.
				tc.heal(owner)
				if err := up.SendSync(batch); err != nil {
					t.Fatalf("retransmit: %v", err)
				}
			}

			// Exactly-once, regardless of path: the batch's records exist
			// once at the owner and never at the other member.
			info, ok := owner.c.Node(node)
			if !ok {
				t.Fatal("batch never ingested at owner")
			}
			if info.Records != uint64(batch.Len()) {
				t.Fatalf("owner has %d records, want %d (double ingest?)", info.Records, batch.Len())
			}
			if info.BatchesDup != tc.wantDupAfter {
				t.Fatalf("owner dup count = %d, want %d", info.BatchesDup, tc.wantDupAfter)
			}
			if _, leaked := other.c.Node(node); leaked {
				t.Fatal("batch leaked to a non-owner member")
			}
		})
	}
}

// A definitive downstream rejection (4xx) is relayed, not retried:
// offering the batch again cannot change the verdict.
func TestRouterRelaysDefinitiveRejection(t *testing.T) {
	const node = wire.NodeID(9)
	m1, m2 := newMember(t, "m1"), newMember(t, "m2")
	router, srv := newTestRouter(t, RouterConfig{Attempts: 3, BackoffMin: time.Millisecond}, m1, m2)
	owner := map[string]*member{"m1": m1, "m2": m2}[router.Ring().Owner(node)]
	owner.fail400.Store(1)

	up := uplink.NewHTTP(srv.URL + "/api/v1/ingest")
	if err := up.SendSync(testBatch(node, 1)); !errors.Is(err, uplink.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected relayed from member", err)
	}
	if got := owner.requests.Load(); got != 1 {
		t.Fatalf("member saw %d requests, want exactly 1 (no retry on 4xx)", got)
	}
	if got := counterValue(t, router.Metrics(), "meshmon_federate_batches_total", "rejected"); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
	if got := counterValue(t, router.Metrics(), "meshmon_federate_retries_total"); got != 0 {
		t.Fatalf("retries counter = %v, want 0", got)
	}
}

// Undecodable bodies and oversized bodies die at the router without
// bothering any member.
func TestRouterRejectsAtTheEdge(t *testing.T) {
	m1 := newMember(t, "m1")
	_, srv := newTestRouter(t, RouterConfig{}, m1)

	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %v, want 400", resp.Status)
	}

	big := strings.Repeat("x", wire.MaxBatchBytes+10)
	resp2, err := http.Post(srv.URL+"/api/v1/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %v, want 413", resp2.Status)
	}
	if got := m1.requests.Load(); got != 0 {
		t.Fatalf("member saw %d requests, want 0", got)
	}
}
