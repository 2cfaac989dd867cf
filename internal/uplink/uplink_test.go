package uplink

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
	"time"

	"lorameshmon/internal/simkit"
	"lorameshmon/internal/wire"
)

type captureSink struct {
	batches []wire.Batch
	reject  bool
}

func (s *captureSink) Ingest(b wire.Batch) error {
	if s.reject {
		return errors.New("nope")
	}
	s.batches = append(s.batches, b)
	return nil
}

func testBatch(seq uint64) wire.Batch {
	return wire.Batch{Node: 1, SeqNo: seq, SentAt: 1,
		Heartbeats: []wire.Heartbeat{{TS: 1, Node: 1}}}
}

func TestSimDeliversWithLatency(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	cfg := SimConfig{LatencyMin: 50 * time.Millisecond, LatencyMax: 50 * time.Millisecond}
	u := NewSim(sim, sink, cfg)
	var doneAt simkit.Time
	var doneErr error = errors.New("sentinel")
	u.Send(testBatch(1), func(err error) { doneErr = err; doneAt = sim.Now() })
	sim.Run()
	if doneErr != nil {
		t.Fatalf("err = %v", doneErr)
	}
	if len(sink.batches) != 1 || sink.batches[0].SeqNo != 1 {
		t.Fatalf("sink = %+v", sink.batches)
	}
	if doneAt < simkit.Time(50*time.Millisecond) {
		t.Fatalf("ack arrived at %v, before the 50ms latency", doneAt)
	}
	st := u.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.BytesSent == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimBandwidthDelay(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	// 100 B/s: a ~90-byte batch takes most of a second.
	cfg := SimConfig{BandwidthBps: 100}
	u := NewSim(sim, sink, cfg)
	var doneAt simkit.Time
	u.Send(testBatch(1), func(error) { doneAt = sim.Now() })
	sim.Run()
	size, _ := wire.EncodedSize(testBatch(1))
	want := time.Duration(float64(size) / 100 * float64(time.Second))
	if doneAt != simkit.Time(want) {
		t.Fatalf("ack at %v, want %v for %dB", doneAt, want, size)
	}
}

func TestSimLoss(t *testing.T) {
	sim := simkit.New(3)
	sink := &captureSink{}
	u := NewSim(sim, sink, SimConfig{LossRate: 1})
	var gotErr error
	u.Send(testBatch(1), func(err error) { gotErr = err })
	sim.Run()
	if !errors.Is(gotErr, ErrLost) {
		t.Fatalf("err = %v, want ErrLost", gotErr)
	}
	if len(sink.batches) != 0 {
		t.Fatal("lost batch reached the sink")
	}
	if u.Stats().Lost != 1 {
		t.Fatalf("stats = %+v", u.Stats())
	}
}

func TestSimPartialLossStatistics(t *testing.T) {
	sim := simkit.New(5)
	sink := &captureSink{}
	u := NewSim(sim, sink, SimConfig{LossRate: 0.3})
	const n = 2000
	for i := 0; i < n; i++ {
		u.Send(testBatch(uint64(i)), func(error) {})
	}
	sim.Run()
	got := float64(len(sink.batches)) / n
	if got < 0.65 || got > 0.75 {
		t.Fatalf("delivery fraction = %v, want ~0.70", got)
	}
}

func TestSimOutage(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	u := NewSim(sim, sink, SimConfig{})
	u.ScheduleOutage(simkit.Time(10*time.Second), 20*time.Second)

	var errAt15, errAt40 error
	sim.At(simkit.Time(15*time.Second), func() {
		u.Send(testBatch(1), func(err error) { errAt15 = err })
	})
	sim.At(simkit.Time(40*time.Second), func() {
		u.Send(testBatch(2), func(err error) { errAt40 = err })
	})
	sim.Run()
	if !errors.Is(errAt15, ErrDown) {
		t.Fatalf("during outage err = %v, want ErrDown", errAt15)
	}
	if errAt40 != nil {
		t.Fatalf("after outage err = %v", errAt40)
	}
	if len(sink.batches) != 1 || sink.batches[0].SeqNo != 2 {
		t.Fatalf("sink = %+v", sink.batches)
	}
}

func TestSimOutageDoesNotCountBytesSent(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	u := NewSim(sim, sink, SimConfig{})
	u.SetDown(true)
	var gotErr error
	u.Send(testBatch(1), func(err error) { gotErr = err })
	sim.Run()
	if !errors.Is(gotErr, ErrDown) {
		t.Fatalf("err = %v, want ErrDown", gotErr)
	}
	// A batch dropped at the down link never reached the wire, so it
	// must not inflate the bandwidth-cost accounting.
	if st := u.Stats(); st.BytesSent != 0 || st.Sent != 1 || st.Lost != 1 {
		t.Fatalf("stats = %+v, want BytesSent 0, Sent 1, Lost 1", st)
	}
	// After the link recovers, bytes are counted again.
	u.SetDown(false)
	u.Send(testBatch(2), func(error) {})
	sim.Run()
	if st := u.Stats(); st.BytesSent == 0 {
		t.Fatalf("stats = %+v, want BytesSent > 0 after recovery", st)
	}
}

func TestSimOutageBeginsMidFlight(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	u := NewSim(sim, sink, SimConfig{LatencyMin: time.Second, LatencyMax: time.Second})
	u.ScheduleOutage(simkit.Time(500*time.Millisecond), 10*time.Second)
	var gotErr error
	u.Send(testBatch(1), func(err error) { gotErr = err })
	sim.Run()
	if !errors.Is(gotErr, ErrDown) {
		t.Fatalf("err = %v, want ErrDown (outage started mid-flight)", gotErr)
	}
}

func TestSimSinkRejection(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{reject: true}
	u := NewSim(sim, sink, SimConfig{})
	var gotErr error
	u.Send(testBatch(1), func(err error) { gotErr = err })
	sim.Run()
	if !errors.Is(gotErr, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", gotErr)
	}
	if u.Stats().Rejected != 1 {
		t.Fatalf("stats = %+v", u.Stats())
	}
}

func TestSimInvalidBatchRejectedLocally(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	u := NewSim(sim, sink, SimConfig{})
	bad := wire.Batch{Node: 1, SentAt: -1}
	var gotErr error
	u.Send(bad, func(err error) { gotErr = err })
	sim.Run()
	if gotErr == nil {
		t.Fatal("invalid batch not rejected")
	}
	if len(sink.batches) != 0 {
		t.Fatal("invalid batch reached the sink")
	}
}

func TestHTTPUplinkAgainstServer(t *testing.T) {
	var received []wire.Batch
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer r.Body.Close()
		buf := make([]byte, r.ContentLength)
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b, err := wire.DecodeBatch(buf)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		received = append(received, b)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	u := NewHTTP(srv.URL)
	if err := u.SendSync(testBatch(7)); err != nil {
		t.Fatal(err)
	}
	if len(received) != 1 || received[0].SeqNo != 7 {
		t.Fatalf("received = %+v", received)
	}

	done := make(chan error, 1)
	u.Send(testBatch(8), func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(received) != 2 {
		t.Fatalf("received %d batches, want 2", len(received))
	}
}

func TestHTTPUplinkServerError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer srv.Close()
	u := NewHTTP(srv.URL)
	err := u.SendSync(testBatch(1))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestHTTPUplinkBinaryEndToEnd(t *testing.T) {
	var gotCT string
	var decoded wire.Batch
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer r.Body.Close()
		gotCT = r.Header.Get("Content-Type")
		buf, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !wire.IsBinaryBatch(buf) {
			http.Error(w, "not binary", http.StatusBadRequest)
			return
		}
		decoded, err = wire.DecodeBatchBinary(buf)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	u := NewHTTP(srv.URL)
	u.Binary = true
	if err := u.SendSync(testBatch(21)); err != nil {
		t.Fatal(err)
	}
	if gotCT != "application/octet-stream" {
		t.Fatalf("content type = %q", gotCT)
	}
	if decoded.SeqNo != 21 {
		t.Fatalf("decoded = %+v", decoded)
	}
}

func TestSimBinaryCodecAccountsSmallerBytes(t *testing.T) {
	b := testBatch(1)
	for i := 0; i < 20; i++ {
		b.Heartbeats = append(b.Heartbeats, wire.Heartbeat{TS: float64(i), Node: 1})
	}
	size := func(binary bool) uint64 {
		sim := simkit.New(1)
		sink := &captureSink{}
		u := NewSim(sim, sink, SimConfig{BinaryCodec: binary})
		u.Send(b, func(error) {})
		sim.Run()
		return u.Stats().BytesSent
	}
	jsonBytes, binBytes := size(false), size(true)
	if binBytes*2 >= jsonBytes {
		t.Fatalf("binary accounting %dB not well below JSON %dB", binBytes, jsonBytes)
	}
	// Each codec's own size is what the link accounts.
	wantJSON, _ := wire.EncodedSize(b)
	wantBin, _ := wire.EncodedSizeBinary(b)
	if jsonBytes != uint64(wantJSON) || binBytes != uint64(wantBin) {
		t.Fatalf("accounted JSON %dB / binary %dB, want %dB / %dB", jsonBytes, binBytes, wantJSON, wantBin)
	}
}

type nopSink struct{}

func (nopSink) Ingest(wire.Batch) error { return nil }

// TestSimSendAllocationFree pins that a steady stream of batches through
// the simulated uplink allocates nothing per batch: each Send re-arms a
// pooled in-flight record's bound Timer instead of scheduling a closure,
// on delivery, loss and outage alike.
func TestSimSendAllocationFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool, which batch sizing uses, drops a random share of Puts under -race")
	}
	for _, tc := range []struct {
		name string
		cfg  SimConfig
		down bool
		want error
	}{
		{"delivered", DefaultSimConfig(), false, nil},
		{"lost", SimConfig{LossRate: 1, LatencyMax: time.Second}, false, ErrLost},
		{"down", DefaultSimConfig(), true, ErrDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simkit.New(1)
			u := NewSim(sim, nopSink{}, tc.cfg)
			u.SetDown(tc.down)
			b := testBatch(1)
			done := func(err error) {
				if !errors.Is(err, tc.want) {
					t.Fatalf("outcome %v, want %v", err, tc.want)
				}
			}
			send := func() {
				u.Send(b, done)
				sim.Run()
			}
			send() // the first Send creates the in-flight record
			if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
				t.Fatalf("Send allocates %v times per batch, want 0", allocs)
			}
		})
	}
}

// TestSimSendFromDone pins that a callback may Send the next batch: the
// landed record is already back in the pool and is reused for it.
func TestSimSendFromDone(t *testing.T) {
	sim := simkit.New(1)
	sink := &captureSink{}
	u := NewSim(sim, sink, DefaultSimConfig())
	var done func(error)
	seq := uint64(1)
	done = func(err error) {
		if err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
		if seq++; seq <= 5 {
			u.Send(testBatch(seq), done)
		}
	}
	u.Send(testBatch(1), done)
	sim.Run()
	if len(sink.batches) != 5 || len(u.free) != 1 {
		t.Fatalf("sink got %d batches, pool holds %d records; want 5 and 1", len(sink.batches), len(u.free))
	}
	for i, b := range sink.batches {
		if b.SeqNo != uint64(i+1) {
			t.Fatalf("batch %d has seq %d", i, b.SeqNo)
		}
	}
}

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
