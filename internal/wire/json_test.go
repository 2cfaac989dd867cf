package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime/debug"
	"strconv"
	"testing"
)

// checkJSONParity asserts AppendBatchJSON(b) is byte-identical to
// json.Marshal(b), including failing exactly when Marshal fails, and
// that the counted size — jsonSize always, EncodedSize when b is valid
// — is the length json.Marshal writes.
func checkJSONParity(t *testing.T, b *Batch) {
	t.Helper()
	want, wantErr := json.Marshal(b)
	prefix := []byte("prefix")
	got, gotErr := AppendBatchJSON(append([]byte(nil), prefix...), b)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error mismatch: json.Marshal %v, AppendBatchJSON %v\nbatch %+v", wantErr, gotErr, b)
	}
	n, sizeErr := jsonSize(b)
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text: json.Marshal %q, AppendBatchJSON %q", wantErr, gotErr)
		}
		if sizeErr == nil || sizeErr.Error() != wantErr.Error() {
			t.Fatalf("error text: json.Marshal %q, jsonSize %v", wantErr, sizeErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("failed append extended dst: %q", got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("encoding mismatch\njson.Marshal:    %s\nAppendBatchJSON: %s", want, got[len(prefix):])
	}
	if sizeErr != nil || n != len(want) {
		t.Fatalf("jsonSize = %d, %v; json.Marshal wrote %d bytes: %s", n, sizeErr, len(want), want)
	}
	if b.Validate() == nil {
		if n, err := EncodedSize(*b); err != nil || n != len(want) {
			t.Fatalf("EncodedSize = %d, %v; json.Marshal wrote %d bytes: %s", n, err, len(want), want)
		}
	}
}

// Strings and floats chosen to hit every escaping and formatting branch.
var (
	trickyStrings = []string{
		"", "HELLO", "no-route", "<>&", `"quoted" \back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\xff", "a\xc3", "\xed\xa0\x80", "\u2028\u2029", "line\u2028sep", "\u00e9\u6f22\U0001f642", "fw/1 <&>",
	}
	trickyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 46, -100.5, 1e-7, -1e-7, 1e-6, 9.99e-7,
		1e20, 1e21, -1e21, 123456789.125, 1e-9, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.25, -0.25, 0.125, 6.75, -97, 1<<40 - 0.25, 1<<40 + 0.25, 1<<40 + 0.1, 1<<50 + 0.25,
	}
)

func randString(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	b := make([]byte, rng.Intn(12))
	rng.Read(b)
	return string(b)
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return trickyFloats[rng.Intn(len(trickyFloats))]
	case 1:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return 0
	default:
		return rng.NormFloat64() * 1000
	}
}

// randBatch builds an arbitrary, not necessarily valid, batch: nil and
// empty slices, zero and non-zero omitempty fields, hostile strings.
func randBatch(rng *rand.Rand) Batch {
	count := func() int {
		switch rng.Intn(4) {
		case 0:
			return -1 // nil
		case 1:
			return 0 // empty, non-nil
		default:
			return 1 + rng.Intn(4)
		}
	}
	b := Batch{Node: NodeID(rng.Intn(1 << 16)), SeqNo: rng.Uint64(), SentAt: randFloat(rng)}
	if n := count(); n >= 0 {
		b.Packets = make([]PacketRecord, n)
		for i := range b.Packets {
			b.Packets[i] = PacketRecord{
				TS: randFloat(rng), Node: NodeID(rng.Intn(1 << 16)), Event: Event(randString(rng)),
				Type: randString(rng), Src: NodeID(rng.Intn(1 << 16)), Dst: NodeID(rng.Intn(1 << 16)),
				Via: NodeID(rng.Intn(1 << 16)), Seq: uint16(rng.Intn(1 << 16)), TTL: uint8(rng.Intn(256)),
				Size: rng.Intn(1<<20) - 1<<19, RSSIdBm: randFloat(rng), SNRdB: randFloat(rng),
				ForUs: rng.Intn(2) == 0, AirtimeMS: randFloat(rng), Reason: randString(rng),
			}
		}
	}
	if n := count(); n >= 0 {
		b.Routes = make([]RouteSnapshot, n)
		for i := range b.Routes {
			s := RouteSnapshot{TS: randFloat(rng), Node: NodeID(rng.Intn(1 << 16))}
			if m := count(); m >= 0 {
				s.Routes = make([]RouteEntry, m)
				for j := range s.Routes {
					s.Routes[j] = RouteEntry{
						Dst: NodeID(rng.Intn(1 << 16)), NextHop: NodeID(rng.Intn(1 << 16)),
						Metric: uint8(rng.Intn(256)), AgeS: randFloat(rng), SNRdB: randFloat(rng),
					}
				}
			}
			b.Routes[i] = s
		}
	}
	if n := count(); n >= 0 {
		b.Stats = make([]NodeStats, n)
		for i := range b.Stats {
			b.Stats[i] = NodeStats{
				TS: randFloat(rng), Node: NodeID(rng.Intn(1 << 16)), UptimeS: randFloat(rng),
				HelloSent: rng.Uint64(), DataSent: rng.Uint64(), AckSent: rng.Uint64(), Forwarded: rng.Uint64(),
				HelloRecv: rng.Uint64(), DataRecv: rng.Uint64(), AckRecv: rng.Uint64(), Overheard: rng.Uint64(),
				Delivered: rng.Uint64(), DupSuppressed: rng.Uint64(),
				DropNoRoute: rng.Uint64(), DropTTL: rng.Uint64(), DropQueueFull: rng.Uint64(), DropAckTimeout: rng.Uint64(),
				RetriesSpent: rng.Uint64(), SendFailures: rng.Uint64(),
				RouteCount: rng.Intn(1000) - 500, QueueLen: rng.Intn(1000) - 500,
				AirtimeMS: randFloat(rng), DutyCycleUsed: randFloat(rng), DutyBlocked: rng.Uint64(),
				RxMissWeak: rng.Uint64(), RxMissCollided: rng.Uint64(),
				Energy: rng.Intn(2) == 0, BatteryFrac: randFloat(rng), BatteryV: randFloat(rng), HarvestW: randFloat(rng),
			}
		}
	}
	if n := count(); n >= 0 {
		b.Heartbeats = make([]Heartbeat, n)
		for i := range b.Heartbeats {
			b.Heartbeats[i] = Heartbeat{
				TS: randFloat(rng), Node: NodeID(rng.Intn(1 << 16)), UptimeS: randFloat(rng), Firmware: randString(rng),
			}
		}
	}
	return b
}

// TestAppendBatchJSONMatchesMarshal is the appender's parity property:
// over seeded random batches it is byte-identical to json.Marshal.
func TestAppendBatchJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		b := randBatch(rng)
		checkJSONParity(t, &b)
	}
}

// TestAppendBatchJSONUnsupportedFloats pins error parity: every float
// field rejects NaN and ±Inf exactly as json.Marshal does.
func TestAppendBatchJSONUnsupportedFloats(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, b := range []Batch{
			{SentAt: bad},
			{Packets: []PacketRecord{{TS: bad}}},
			{Packets: []PacketRecord{{RSSIdBm: bad}}},
			{Packets: []PacketRecord{{AirtimeMS: bad}}},
			{Routes: []RouteSnapshot{{Routes: []RouteEntry{{AgeS: bad}}}}},
			{Routes: []RouteSnapshot{{Routes: []RouteEntry{{SNRdB: bad}}}}},
			{Stats: []NodeStats{{DutyCycleUsed: bad}}},
			{Stats: []NodeStats{{HarvestW: bad}}},
			{Heartbeats: []Heartbeat{{UptimeS: bad}}},
		} {
			checkJSONParity(t, &b)
		}
	}
}

// TestAppendFloatQuarterGrid pins the appender's exact path for whole
// quarters against json.Marshal, in both modes, over ±k/4 for k up to
// 2^44: every k below 2^12, then a log-uniform sample reaching past the
// 2^42 bound on either side of it. Quarter counts near 2^52, where the
// exact expansion is no longer the shortest, catch a bound set too high.
func TestAppendFloatQuarterGrid(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		a := jsonAppender{}
		a.float(f)
		c := jsonAppender{count: true}
		c.float(f)
		if !bytes.Equal(a.buf, want) || c.n != len(want) {
			t.Fatalf("float(%v) = %q (counted %d), json.Marshal %q", f, a.buf, c.n, want)
		}
	}
	for k := int64(0); k < 1<<12; k++ {
		check(float64(k) / 4)
		check(-float64(k) / 4)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		k := rng.Int63n(1 << (1 + rng.Intn(44)))
		check(float64(k) / 4)
		check(-float64(k) / 4)
	}
	for _, k := range []int64{gridBound - 1, gridBound, gridBound + 1, 1<<44 - 1, 1 << 44, 740385025538228*4 + 1} {
		check(float64(k) / 4)
		check(-float64(k) / 4)
	}
}

// TestDigitsMatchesFormat checks the counting mode's digit count at
// every power of ten, either side of it, and over random values.
func TestDigitsMatchesFormat(t *testing.T) {
	check := func(v uint64) {
		t.Helper()
		if got, want := digits(v), len(strconv.FormatUint(v, 10)); got != want {
			t.Fatalf("digits(%d) = %d, want %d", v, got, want)
		}
	}
	check(math.MaxUint64)
	for _, p := range pow10 {
		check(p - 1)
		check(p)
		check(p + 1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Uint64() >> rng.Intn(64))
	}
}

// TestEncodedSizeAllocationFree pins that sizing a batch for the
// simulated uplink allocates nothing in the steady state.
func TestEncodedSizeAllocationFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	b := benchBatch()
	b.Routes = []RouteSnapshot{{TS: 1, Node: 1, Routes: []RouteEntry{{Dst: 2, NextHop: 2, Metric: 1, AgeS: 3.5, SNRdB: -2}}}}
	b.Heartbeats = []Heartbeat{{TS: 1, Node: 1, UptimeS: 9, Firmware: "fw/1"}}
	want, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n, err := EncodedSize(b)
		if err != nil || n != len(want) {
			t.Fatalf("EncodedSize = %d, %v; want %d", n, err, len(want))
		}
	}); allocs != 0 {
		t.Fatalf("EncodedSize allocates %v times per call, want 0", allocs)
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

// FuzzAppendBatchJSON drives the appender's string and float paths
// with arbitrary input and checks parity with json.Marshal, counted
// size included.
func FuzzAppendBatchJSON(f *testing.F) {
	for _, s := range []string{"<>&", "\x00\x01\x1f\b\f\n\r\t", "\xff\xfe", "\u2028\u2029", "ok"} {
		f.Add(s, 1.0, 46.0, uint8(0))
	}
	f.Add("", math.Copysign(0, -1), 1e-7, uint8(1))
	f.Add("x", 1e21, 1e20, uint8(2))
	f.Add("x", math.NaN(), 1.0, uint8(3))
	f.Add("x", math.Inf(1), math.Inf(-1), uint8(4))
	f.Add("x", 1.5, 2.5, uint8(0xff))
	// The edges of the appender's exact quarter-grid path.
	f.Add("x", math.Copysign(0, -1), 0.25, uint8(0x5d))
	f.Add("x", -0.25, 0.125, uint8(0x5d))
	f.Add("x", -0.125, 1<<40-0.25, uint8(0x5d))
	f.Add("x", 1<<40+0.25, -(1<<40 + 0.25), uint8(0x5d))
	f.Add("x", 1<<40+0.1, -(1<<40 - 0.25), uint8(0x5d))
	f.Fuzz(func(t *testing.T, s string, x, y float64, shape uint8) {
		b := Batch{Node: 7, SeqNo: uint64(shape), SentAt: x}
		if shape&1 != 0 {
			b.Packets = []PacketRecord{{TS: y, Event: Event(s), Type: s, RSSIdBm: x, SNRdB: y, AirtimeMS: x, Reason: s, ForUs: shape&2 != 0}}
		} else if shape&2 != 0 {
			b.Packets = []PacketRecord{} // empty top-level slice: omitted
		}
		switch shape >> 2 & 3 {
		case 1:
			b.Routes = []RouteSnapshot{{TS: x}} // nil table: null
		case 2:
			b.Routes = []RouteSnapshot{{TS: x, Routes: []RouteEntry{}}} // empty table: []
		case 3:
			b.Routes = []RouteSnapshot{{TS: x, Routes: []RouteEntry{{Dst: 1, Metric: 1, AgeS: y, SNRdB: x}}}}
		}
		if shape&16 != 0 {
			b.Stats = []NodeStats{{TS: y, Energy: shape&32 != 0, BatteryFrac: x, BatteryV: y, HarvestW: x}}
		}
		if shape&64 != 0 {
			b.Heartbeats = []Heartbeat{{TS: x, UptimeS: y, Firmware: s}}
		} else if shape&128 != 0 {
			b.Heartbeats = []Heartbeat{}
		}
		checkJSONParity(t, &b)
	})
}
