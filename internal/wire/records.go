// Package wire defines the monitoring wire format: the JSON records a
// LoRa mesh node's monitoring client periodically ships to the server.
//
// The paper's client reports "detailed information about the nodes'
// in- and outgoing LoRa packets"; we reproduce that as four record
// kinds — per-packet events, routing-table snapshots, counter
// summaries and heartbeats — wrapped in a batch envelope with a
// per-node sequence number so the server can detect upload gaps.
//
// The package is dependency-free so both the client (on-node agent) and
// the server (collector) can share it.
//
// Decoding contract: DecodeBatch reads the bytes AppendBatchJSON writes
// (what agents, the load generator and the recorder send) in one
// reflection-free pass. Any other JSON (whitespace, reordered or
// case-folded keys, escapes, ...) is decoded by encoding/json, so every
// input gets encoding/json's verdict, Batch and error text.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// NodeID is a mesh node address (16-bit, LoRaMesher-style).
type NodeID uint16

func (n NodeID) String() string { return string(n.Append(make([]byte, 0, 5))) }

// Append appends the String form, N and four upper-case hex digits.
func (n NodeID) Append(b []byte) []byte {
	const hex = "0123456789ABCDEF"
	return append(b, 'N', hex[n>>12], hex[n>>8&0xF], hex[n>>4&0xF], hex[n&0xF])
}

// BroadcastID mirrors the mesh broadcast address in telemetry.
const BroadcastID NodeID = 0xFFFF

// Event distinguishes what happened to a packet at the reporting node.
type Event string

// Packet events.
const (
	EventRx   Event = "rx"   // decoded frame arrived at the radio
	EventTx   Event = "tx"   // frame put on the air
	EventDrop Event = "drop" // frame discarded by the router
)

// Valid reports whether e is a known event.
func (e Event) Valid() bool { return e == EventRx || e == EventTx || e == EventDrop }

// PacketRecord describes one LoRa packet event observed at a node — the
// core monitoring datum of the paper.
type PacketRecord struct {
	// TS is seconds since the start of the deployment/run.
	TS    float64 `json:"ts"`
	Node  NodeID  `json:"node"`
	Event Event   `json:"event"`

	Type string `json:"type"` // HELLO, DATA, ACK
	Src  NodeID `json:"src"`
	Dst  NodeID `json:"dst"`
	Via  NodeID `json:"via"`
	Seq  uint16 `json:"seq"`
	TTL  uint8  `json:"ttl"`
	Size int    `json:"size_bytes"`

	// Radio measurements; only meaningful for rx events. Agents send
	// them at the SX1276's register resolution: RSSI in whole dBm
	// (RegPktRssiValue), SNR in 0.25 dB steps (RegPktSnrValue / 4).
	RSSIdBm float64 `json:"rssi_dbm,omitempty"`
	SNRdB   float64 `json:"snr_db,omitempty"`
	// ForUs reports whether the frame was link-layer addressed to the
	// node (rx events; false means overheard).
	ForUs bool `json:"for_us,omitempty"`

	// AirtimeMS is the frame's time on air (tx and rx events).
	AirtimeMS float64 `json:"airtime_ms,omitempty"`

	// Reason labels drop events ("no-route", "ttl-expired", ...).
	Reason string `json:"reason,omitempty"`
}

// finite reports whether a timestamp is neither NaN nor ±Inf. The
// collector's record-time clock, and retention measured from it, take
// the newest timestamp ingested, so one non-finite record would move
// them for every node.
func finite(ts float64) bool { return !math.IsNaN(ts) && !math.IsInf(ts, 0) }

// Validate reports structural problems.
func (r PacketRecord) Validate() error {
	switch {
	case !finite(r.TS):
		return fmt.Errorf("wire: packet record: non-finite timestamp %v", r.TS)
	case r.TS < 0:
		return fmt.Errorf("wire: packet record: negative timestamp %v", r.TS)
	case !r.Event.Valid():
		return fmt.Errorf("wire: packet record: unknown event %q", r.Event)
	case r.Type == "":
		return errors.New("wire: packet record: empty packet type")
	case r.Size < 0:
		return fmt.Errorf("wire: packet record: negative size %d", r.Size)
	case r.Event == EventDrop && r.Reason == "":
		return errors.New("wire: packet record: drop without reason")
	}
	return nil
}

// RouteEntry is one routing-table row inside a RouteSnapshot.
type RouteEntry struct {
	Dst     NodeID `json:"dst"`
	NextHop NodeID `json:"next_hop"`
	Metric  uint8  `json:"metric"`
	// AgeS is the time since the route was last refreshed; agents send
	// whole seconds, truncated.
	AgeS float64 `json:"age_s"`
	// SNRdB is the link SNR the route was learned at; agents send it in
	// the SX1276's 0.25 dB steps (RegPktSnrValue / 4).
	SNRdB float64 `json:"snr_db,omitempty"`
}

// RouteSnapshot is a node's full routing table at one instant, letting
// the server reconstruct topology and route evolution.
type RouteSnapshot struct {
	TS     float64      `json:"ts"`
	Node   NodeID       `json:"node"`
	Routes []RouteEntry `json:"routes"`
}

// Validate reports structural problems. An entry's age and SNR must be
// finite: the collector serves them as JSON, which has no NaN or ±Inf.
func (s RouteSnapshot) Validate() error { return s.validate(false) }

// validate is Validate, except that with logged set an entry's age and
// SNR may be non-finite (a negative age is still refused): that was the
// rule before Validate refused them, and logs written under it replay.
func (s RouteSnapshot) validate(logged bool) error {
	if !finite(s.TS) {
		return fmt.Errorf("wire: route snapshot: non-finite timestamp %v", s.TS)
	}
	if s.TS < 0 {
		return fmt.Errorf("wire: route snapshot: negative timestamp %v", s.TS)
	}
	for i, r := range s.Routes {
		switch {
		case r.Metric == 0:
			return fmt.Errorf("wire: route snapshot: entry %d has zero metric", i)
		case r.AgeS < 0:
			return fmt.Errorf("wire: route snapshot: entry %d has negative age", i)
		case !logged && !(finite(r.AgeS) && finite(r.SNRdB)):
			return fmt.Errorf("wire: route snapshot: entry %d has non-finite age or SNR", i)
		}
	}
	return nil
}

// NodeStats is the periodic counter summary a node reports: protocol
// counters, radio outcomes and regulatory state.
type NodeStats struct {
	TS   float64 `json:"ts"`
	Node NodeID  `json:"node"`

	UptimeS float64 `json:"uptime_s"`

	HelloSent uint64 `json:"hello_sent"`
	DataSent  uint64 `json:"data_sent"`
	AckSent   uint64 `json:"ack_sent"`
	Forwarded uint64 `json:"forwarded"`

	HelloRecv     uint64 `json:"hello_recv"`
	DataRecv      uint64 `json:"data_recv"`
	AckRecv       uint64 `json:"ack_recv"`
	Overheard     uint64 `json:"overheard"`
	Delivered     uint64 `json:"delivered"`
	DupSuppressed uint64 `json:"dup_suppressed"`

	DropNoRoute    uint64 `json:"drop_no_route"`
	DropTTL        uint64 `json:"drop_ttl"`
	DropQueueFull  uint64 `json:"drop_queue_full"`
	DropAckTimeout uint64 `json:"drop_ack_timeout"`

	RetriesSpent uint64 `json:"retries_spent"`
	SendFailures uint64 `json:"send_failures"`
	RouteCount   int    `json:"route_count"`
	QueueLen     int    `json:"queue_len"`

	AirtimeMS      float64 `json:"airtime_ms"`
	DutyCycleUsed  float64 `json:"duty_cycle_used"`
	DutyBlocked    uint64  `json:"duty_blocked"`
	RxMissWeak     uint64  `json:"rx_miss_weak"`
	RxMissCollided uint64  `json:"rx_miss_collided"`

	// Energy marks that the node has a battery model attached and the
	// three fields below are meaningful. Nodes without one (mains
	// powered, or old firmware) leave it false and the server treats
	// the record exactly as before.
	Energy      bool    `json:"energy,omitempty"`
	BatteryFrac float64 `json:"battery_frac,omitempty"` // state of charge [0,1]
	BatteryV    float64 `json:"battery_v,omitempty"`    // terminal voltage
	HarvestW    float64 `json:"harvest_w,omitempty"`    // instantaneous panel output
}

// Validate reports structural problems.
func (s NodeStats) Validate() error {
	switch {
	case !finite(s.TS):
		return fmt.Errorf("wire: node stats: non-finite timestamp %v", s.TS)
	case s.TS < 0:
		return fmt.Errorf("wire: node stats: negative timestamp %v", s.TS)
	case s.UptimeS < 0:
		return fmt.Errorf("wire: node stats: negative uptime %v", s.UptimeS)
	case s.DutyCycleUsed < 0 || s.DutyCycleUsed > 1:
		return fmt.Errorf("wire: node stats: duty cycle %v outside [0,1]", s.DutyCycleUsed)
	case s.Energy && (s.BatteryFrac < 0 || s.BatteryFrac > 1):
		return fmt.Errorf("wire: node stats: battery fraction %v outside [0,1]", s.BatteryFrac)
	case s.Energy && (s.BatteryV < 0 || s.HarvestW < 0):
		return fmt.Errorf("wire: node stats: negative battery voltage or harvest")
	}
	return nil
}

// Heartbeat is the minimal liveness beacon, sent even when a node has
// nothing else to report; the server's node-down detector keys off it.
type Heartbeat struct {
	TS       float64 `json:"ts"`
	Node     NodeID  `json:"node"`
	UptimeS  float64 `json:"uptime_s"`
	Firmware string  `json:"firmware,omitempty"`
}

// Validate reports structural problems.
func (h Heartbeat) Validate() error {
	switch {
	case !finite(h.TS):
		return fmt.Errorf("wire: heartbeat: non-finite timestamp %v", h.TS)
	case h.TS < 0:
		return fmt.Errorf("wire: heartbeat: negative timestamp %v", h.TS)
	}
	return nil
}

// Batch is the upload envelope. SeqNo increments per node per batch, so
// the server can detect lost uploads; SentAt is the transmission time
// (records inside may be older when the uplink was buffered).
type Batch struct {
	Node   NodeID  `json:"node"`
	SeqNo  uint64  `json:"seq_no"`
	SentAt float64 `json:"sent_at"`

	Packets    []PacketRecord  `json:"packets,omitempty"`
	Routes     []RouteSnapshot `json:"routes,omitempty"`
	Stats      []NodeStats     `json:"stats,omitempty"`
	Heartbeats []Heartbeat     `json:"heartbeats,omitempty"`
}

// Len returns the number of records in the batch.
func (b Batch) Len() int {
	return len(b.Packets) + len(b.Routes) + len(b.Stats) + len(b.Heartbeats)
}

// Validate checks the envelope and every record.
func (b Batch) Validate() error { return b.validate(false) }

// validate is Validate, except that with logged set a timestamp only
// has to be non-negative, so NaN and +Inf pass, and route entries may
// carry non-finite ages and SNRs: that was the rule before Validate
// refused them, write-ahead logs written under it may hold such
// batches, and those logs replay as they did.
func (b Batch) validate(logged bool) error {
	ts := func(v float64) float64 {
		if logged && !(v < 0) {
			return 0
		}
		return v
	}
	switch sent := ts(b.SentAt); {
	case !finite(sent):
		return fmt.Errorf("wire: batch: non-finite sent_at %v", b.SentAt)
	case sent < 0:
		return fmt.Errorf("wire: batch: negative sent_at %v", b.SentAt)
	}
	for _, p := range b.Packets {
		p.TS = ts(p.TS)
		if err := p.Validate(); err != nil {
			return err
		}
		if p.Node != b.Node {
			return fmt.Errorf("wire: batch from %v contains packet record from %v", b.Node, p.Node)
		}
	}
	for _, r := range b.Routes {
		r.TS = ts(r.TS)
		if err := r.validate(logged); err != nil {
			return err
		}
		if r.Node != b.Node {
			return fmt.Errorf("wire: batch from %v contains route snapshot from %v", b.Node, r.Node)
		}
	}
	for _, s := range b.Stats {
		s.TS = ts(s.TS)
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Node != b.Node {
			return fmt.Errorf("wire: batch from %v contains stats from %v", b.Node, s.Node)
		}
	}
	for _, h := range b.Heartbeats {
		h.TS = ts(h.TS)
		if err := h.Validate(); err != nil {
			return err
		}
		if h.Node != b.Node {
			return fmt.Errorf("wire: batch from %v contains heartbeat from %v", b.Node, h.Node)
		}
	}
	return nil
}

// EncodeBatch validates and serialises a batch to JSON.
func EncodeBatch(b Batch) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	buf := jsonScratch.Get().(*[]byte)
	defer jsonScratch.Put(buf)
	out, err := AppendBatchJSON((*buf)[:0], &b)
	*buf = out
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), out...), nil
}

// DecodeBatch parses and validates a batch from JSON. Canonical bytes
// take decodeCanonical's single pass; anything else json.Unmarshal.
// The batch never aliases data.
func DecodeBatch(data []byte) (Batch, error) {
	b, ok := decodeCanonical(data)
	if !ok {
		var err error
		if b, err = unmarshalBatch(data); err != nil {
			return Batch{}, fmt.Errorf("wire: decode batch: %w", err)
		}
	}
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// unmarshalBatch is json.Unmarshal into a fresh Batch, kept apart so
// that only this path's batch escapes to the heap.
func unmarshalBatch(data []byte) (Batch, error) {
	var b Batch
	err := json.Unmarshal(data, &b)
	return b, err
}

// MaxBatchBytes bounds one uploaded batch body on every ingest hop (a
// full batch of 256 packet records is well under 100 KiB), so a router
// never accepts what its member would reject.
const MaxBatchBytes = 1 << 20

// ErrBatchTooLarge reports an upload body over MaxBatchBytes.
var ErrBatchTooLarge = fmt.Errorf("batch exceeds %d bytes", MaxBatchBytes)

// ReadBatch reads one uploaded batch body of at most MaxBatchBytes from
// r and decodes it, binary or JSON by its leading magic bytes. It also
// returns the body, so a router can forward the exact bytes. sizeHint
// is the body's expected length (an HTTP request's ContentLength; -1
// when unknown): the body buffer is allocated once at that size. A
// failed read returns the reader's error and a nil body, an oversized
// body ErrBatchTooLarge and a nil body; a body that fails to decode
// comes back with the decoder's error.
func ReadBatch(r io.Reader, sizeHint int64) (Batch, []byte, error) {
	body, err := readBody(io.LimitReader(r, MaxBatchBytes+1), sizeHint)
	if err != nil {
		return Batch{}, nil, err
	}
	if len(body) > MaxBatchBytes {
		return Batch{}, nil, ErrBatchTooLarge
	}
	var b Batch
	if IsBinaryBatch(body) {
		b, err = DecodeBatchBinary(body)
	} else {
		b, err = DecodeBatch(body)
	}
	return b, body, err
}

// readBody is io.ReadAll starting from a buffer of sizeHint+1 bytes
// (capped at MaxBatchBytes+1), so a body of the hinted length is read
// with no regrowth and its EOF lands in the spare byte.
func readBody(r io.Reader, sizeHint int64) ([]byte, error) {
	n := int64(512) // io.ReadAll's first buffer
	if sizeHint >= 0 {
		n = min(sizeHint, MaxBatchBytes) + 1
	}
	b := make([]byte, 0, n)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// jsonScratch recycles the buffers batches are encoded into, so
// encoding one allocates only its result, once a buffer has grown to
// fit.
var jsonScratch = sync.Pool{New: func() any { return new([]byte) }}

// EncodedSize returns the JSON size of the batch in bytes, the quantity
// the uplink-bandwidth experiments sweep. It counts what EncodeBatch
// would write without writing it, and allocates nothing.
func EncodedSize(b Batch) (int, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	return jsonSize(&b)
}
