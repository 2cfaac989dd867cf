package collector

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

func newServer(t *testing.T) (*Collector, *httptest.Server) {
	t.Helper()
	c := newCollector()
	srv := httptest.NewServer(c.APIHandler())
	t.Cleanup(srv.Close)
	return c, srv
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func postBatch(t *testing.T, url string, b wire.Batch) *http.Response {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/v1/ingest", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHTTPIngestAndNodes(t *testing.T) {
	c, srv := newServer(t)
	resp := postBatch(t, srv.URL, wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 5,
		Heartbeats: []wire.Heartbeat{{TS: 5, Node: 1, UptimeS: 5}},
		Packets:    []wire.PacketRecord{pktRecord(1, 4, wire.EventTx)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %v", resp.Status)
	}
	if c.Stats().BatchesIngested != 1 {
		t.Fatal("batch not ingested")
	}

	r, err := http.Get(srv.URL + "/api/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var nodes []NodeInfo
	if err := json.NewDecoder(r.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].ID != 1 {
		t.Fatalf("nodes = %+v", nodes)
	}

	r2, err := http.Get(srv.URL + "/api/v1/nodes/N0001")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("node status = %v", r2.Status)
	}

	r3 := mustGet(t, srv.URL+"/api/v1/nodes/N0099")
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("missing node status = %v", r3.Status)
	}
}

func TestHTTPIngestRejectsBadBody(t *testing.T) {
	_, srv := newServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %v, want 400", resp.Status)
	}
}

func TestHTTPIngestRejectsOversizedBody(t *testing.T) {
	_, srv := newServer(t)
	big := strings.Repeat("x", wire.MaxBatchBytes+10)
	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %v, want 413", resp.Status)
	}
}

func TestHTTPRecentAndStats(t *testing.T) {
	_, srv := newServer(t)
	postBatch(t, srv.URL, wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 5,
		Packets: []wire.PacketRecord{
			pktRecord(1, 1, wire.EventTx),
			pktRecord(1, 2, wire.EventRx),
		},
	})
	r, err := http.Get(srv.URL + "/api/v1/recent?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var recent []wire.PacketRecord
	if err := json.NewDecoder(r.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	if len(recent) != 1 || recent[0].TS != 2 {
		t.Fatalf("recent = %+v", recent)
	}

	bad := mustGet(t, srv.URL+"/api/v1/recent?limit=potato")
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %v", bad.Status)
	}

	rs := mustGet(t, srv.URL+"/api/v1/stats")
	var st Stats
	if err := json.NewDecoder(rs.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.BatchesIngested != 1 || st.NodesKnown != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHTTPQuery(t *testing.T) {
	_, srv := newServer(t)
	postBatch(t, srv.URL, wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 5,
		Packets: []wire.PacketRecord{pktRecord(1, 3, wire.EventTx)},
	})
	r, err := http.Get(srv.URL + "/api/v1/query?metric=mesh_airtime_ms&label.node=N0001&from=0&to=10")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var res []tsdb.Result
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("query result = %+v", res)
	}

	missing := mustGet(t, srv.URL+"/api/v1/query")
	if missing.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing metric status = %v", missing.Status)
	}
	badFrom := mustGet(t, srv.URL+"/api/v1/query?metric=m&from=zzz")
	if badFrom.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from status = %v", badFrom.Status)
	}
	// A non-finite from, to or step is the client's error, not a 500
	// from the encoder or an empty 200.
	for _, q := range []string{"from=NaN", "to=NaN", "from=-Inf", "to=Inf", "step=NaN", "step=Inf"} {
		r := mustGet(t, srv.URL+"/api/v1/query?metric=mesh_airtime_ms&label.node=N0001&"+q)
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %v, want 400", q, r.Status)
		}
	}
}

func TestHTTPIngestBinaryBatch(t *testing.T) {
	c, srv := newServer(t)
	b := wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 5,
		Heartbeats: []wire.Heartbeat{{TS: 5, Node: 1, UptimeS: 5}},
	}
	data, err := wire.EncodeBatchBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/octet-stream",
		strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest status = %v", resp.Status)
	}
	if c.Stats().BatchesIngested != 1 {
		t.Fatal("binary batch not ingested")
	}
	n, _ := c.Node(1)
	if n.LastBeatTS != 5 {
		t.Fatalf("node info = %+v", n)
	}
}

// TestHTTPIngestRejectsNonFiniteTimestamp: JSON cannot carry a
// non-finite timestamp but the binary codec can; ingest answers 400
// and the batch moves neither the collector's record-time clock nor,
// through retention measured from it, another node's data.
func TestHTTPIngestRejectsNonFiniteTimestamp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetentionS = 3600
	c := New(tsdb.New(), cfg)
	srv := httptest.NewServer(c.APIHandler())
	t.Cleanup(srv.Close)
	for i := 1; i <= 10; i++ {
		ts := float64(100 * i)
		if err := c.Ingest(wire.Batch{Node: 2, SeqNo: uint64(i), SentAt: ts,
			Heartbeats: []wire.Heartbeat{{TS: ts, Node: 2, UptimeS: ts}}}); err != nil {
			t.Fatal(err)
		}
	}
	const marker = 12345.5 // replaced by +Inf in the encoded body
	data, err := wire.EncodeBatchBinary(wire.Batch{Node: 1, SeqNo: 1, SentAt: 1000,
		Heartbeats: []wire.Heartbeat{{TS: marker, Node: 1, UptimeS: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	le := func(v float64) string { return string(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	body := strings.Replace(string(data), le(marker), le(math.Inf(1)), 1)
	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %v, want 400", resp.Status)
	}
	uptime, _ := c.TSDB().QueryOne("node_uptime", tsdb.Labels{"node": "N0002"}, math.Inf(-1), math.Inf(1))
	if c.MaxTS() != 1000 || len(uptime.Points) != 10 {
		t.Fatalf("MaxTS %v and N0002 holds %d uptime points, want 1000 and 10", c.MaxTS(), len(uptime.Points))
	}
}

func TestHTTPQueryDownsampled(t *testing.T) {
	c, srv := newServer(t)
	for i := 0; i < 10; i++ {
		c.TSDB().Append("m", tsdb.Labels{"node": "N0001"}, float64(i), 1)
	}
	r := mustGet(t, srv.URL+"/api/v1/query?metric=m&from=0&to=100&step=4&agg=sum")
	var res []tsdb.Result
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 3 {
		t.Fatalf("downsampled result = %+v", res)
	}
	if res[0].Points[0].Value != 4 || res[0].Points[2].Value != 2 {
		t.Fatalf("bucket sums = %+v", res[0].Points)
	}
	if bad := mustGet(t, srv.URL+"/api/v1/query?metric=m&step=zero"); bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad step status = %d", bad.StatusCode)
	}
	if bad := mustGet(t, srv.URL+"/api/v1/query?metric=m&step=5&agg=median"); bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad agg status = %d", bad.StatusCode)
	}
}

func TestHTTPExportJSONL(t *testing.T) {
	_, srv := newServer(t)
	postBatch(t, srv.URL, wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 10,
		Packets: []wire.PacketRecord{
			pktRecord(1, 1, wire.EventTx),
			pktRecord(1, 5, wire.EventRx),
			pktRecord(1, 9, wire.EventDrop),
		},
	})
	r := mustGet(t, srv.URL+"/api/v1/export?from=2&to=8")
	if ct := r.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("content type = %q", ct)
	}
	dec := json.NewDecoder(r.Body)
	var got []wire.PacketRecord
	for dec.More() {
		var p wire.PacketRecord
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if len(got) != 1 || got[0].TS != 5 {
		t.Fatalf("export = %+v, want only the TS=5 record", got)
	}
	for _, q := range []string{"from=x", "from=NaN", "to=NaN", "from=-Inf", "to=Inf"} {
		if bad := mustGet(t, srv.URL+"/api/v1/export?"+q); bad.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", q, bad.StatusCode)
		}
	}
}

// TestHTTPIngestRejectsNonFiniteRouteEntry: JSON cannot carry a NaN
// route age but the binary codec can; ingest answers 400, and the
// fleet-wide node reads keep answering JSON for every node.
func TestHTTPIngestRejectsNonFiniteRouteEntry(t *testing.T) {
	c, srv := newServer(t)
	if err := c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 5,
		Heartbeats: []wire.Heartbeat{{TS: 5, Node: 1, UptimeS: 5}}}); err != nil {
		t.Fatal(err)
	}
	const marker = 1234.5 // replaced by NaN in the encoded body
	data, err := wire.EncodeBatchBinary(wire.Batch{Node: 2, SeqNo: 1, SentAt: 6,
		Routes: []wire.RouteSnapshot{{TS: 6, Node: 2,
			Routes: []wire.RouteEntry{{Dst: 1, NextHop: 1, Metric: 1, AgeS: marker}}}}})
	if err != nil {
		t.Fatal(err)
	}
	le := func(v float32) string { return string(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v))) }
	body := strings.Replace(string(data), le(marker), le(float32(math.NaN())), 1)
	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %v, want 400", resp.Status)
	}
	var nodes []NodeInfo
	if r := mustGet(t, srv.URL+"/api/v1/nodes"); r.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/nodes status %v", r.Status)
	} else if err := json.NewDecoder(r.Body).Decode(&nodes); err != nil || len(nodes) != 1 {
		t.Fatalf("/api/v1/nodes = %+v, %v", nodes, err)
	}
	var one NodeInfo
	if r := mustGet(t, srv.URL+"/api/v1/nodes/N0001"); r.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/nodes/N0001 status %v", r.Status)
	} else if err := json.NewDecoder(r.Body).Decode(&one); err != nil || one.ID != 1 {
		t.Fatalf("/api/v1/nodes/N0001 = %+v, %v", one, err)
	}
}

// TestHTTPUnencodableResponseAnswers500: packet values are stored as
// sent, so a -Inf RSSI reaches /api/v1/recent; the read answers 500
// with the encoder's error instead of 200 with an empty body, and other
// reads are unaffected.
func TestHTTPUnencodableResponseAnswers500(t *testing.T) {
	_, srv := newServer(t)
	p := pktRecord(1, 4, wire.EventRx)
	p.RSSIdBm = math.Inf(-1)
	data, err := wire.EncodeBatchBinary(wire.Batch{Node: 1, SeqNo: 1, SentAt: 5, Packets: []wire.PacketRecord{p}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/ingest", "application/octet-stream", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %v", resp.Status)
	}
	r := mustGet(t, srv.URL+"/api/v1/recent")
	var body struct{ Error string }
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatalf("/api/v1/recent status %v, body not JSON: %v", r.Status, err)
	}
	if r.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("/api/v1/recent = %v %+v, want 500 with the encoder's error", r.Status, body)
	}
	if r := mustGet(t, srv.URL+"/api/v1/stats"); r.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/stats status %v", r.Status)
	}
}

// TestWriteAcceptedMatchesWriteJSON pins the ingest ack to the bytes and
// headers writeJSON gives the same answer.
func TestWriteAcceptedMatchesWriteJSON(t *testing.T) {
	for _, n := range []int{0, 1, 32, 1 << 20} {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, map[string]any{"accepted": n})
		writeAccepted(got, n)
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("n=%d: writeAccepted %d %v %q, writeJSON %d %v %q",
				n, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
