package wire

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// decodeCanonical parses data when it is in the form AppendBatchJSON
// writes: keys in the appender's order with no whitespace, omitempty
// fields present or absent in their fixed places, numbers in JSON's
// grammar, and strings with no escape, control byte or invalid UTF-8.
// It reports false at the first byte it does not expect, and DecodeBatch
// then decodes the whole body with encoding/json. So on what it accepts
// it must return exactly the Batch json.Unmarshal would: floats through
// strconv.ParseFloat, integers range-checked at the field's width, a
// null array nil and an empty one non-nil. Strings are copied or
// interned, so the batch never aliases data.
func decodeCanonical(data []byte) (Batch, bool) {
	d := canonDecoders.Get().(*canonDecoder)
	d.data, d.i, d.bad = data, 0, false
	var b Batch
	d.lit(`{"node":`)
	b.Node = d.node()
	d.lit(`,"seq_no":`)
	b.SeqNo = d.uint(math.MaxUint64)
	d.lit(`,"sent_at":`)
	b.SentAt = d.float()
	if d.opt(`,"packets":`) {
		b.Packets = decodeArray(d, &d.packets, (*canonDecoder).packet)
	}
	if d.opt(`,"routes":`) {
		b.Routes = decodeArray(d, &d.routes, (*canonDecoder).routeSnapshot)
	}
	if d.opt(`,"stats":`) {
		b.Stats = decodeArray(d, &d.stats, (*canonDecoder).nodeStats)
	}
	if d.opt(`,"heartbeats":`) {
		b.Heartbeats = decodeArray(d, &d.heartbeats, (*canonDecoder).heartbeat)
	}
	d.lit("}")
	ok := !d.bad && d.i == len(data)
	d.data = nil
	canonDecoders.Put(d)
	return b, ok
}

// canonDecoder is decodeCanonical's cursor. Once bad is set every
// optional field and further array element is skipped, and the result
// is discarded. The scratch slices collect an array's elements, so each
// array costs one exactly-sized allocation whatever its length.
type canonDecoder struct {
	data []byte
	i    int
	bad  bool

	packets    []PacketRecord
	routes     []RouteSnapshot
	entries    []RouteEntry
	stats      []NodeStats
	heartbeats []Heartbeat
}

var canonDecoders = sync.Pool{New: func() any { return new(canonDecoder) }}

// decodeArray parses null (a nil slice), [] (an empty one) or a
// comma-separated list of elements, collected in scratch and then
// copied out.
func decodeArray[T any](d *canonDecoder, scratch *[]T, elem func(*canonDecoder, *T)) []T {
	if d.opt("null") {
		return nil
	}
	d.lit("[")
	if d.opt("]") {
		return []T{}
	}
	s := (*scratch)[:0]
	for {
		var zero T
		s = append(s, zero)
		elem(d, &s[len(s)-1])
		if !d.opt(",") {
			break
		}
	}
	d.lit("]")
	out := append(make([]T, 0, len(s)), s...)
	clear(s) // the pooled scratch keeps no strings or route tables alive
	*scratch = s
	return out
}

func (d *canonDecoder) packet(p *PacketRecord) {
	d.lit(`{"ts":`)
	p.TS = d.float()
	d.lit(`,"node":`)
	p.Node = d.node()
	d.lit(`,"event":`)
	p.Event = Event(d.str())
	d.lit(`,"type":`)
	p.Type = d.str()
	d.lit(`,"src":`)
	p.Src = d.node()
	d.lit(`,"dst":`)
	p.Dst = d.node()
	d.lit(`,"via":`)
	p.Via = d.node()
	d.lit(`,"seq":`)
	p.Seq = uint16(d.uint(math.MaxUint16))
	d.lit(`,"ttl":`)
	p.TTL = uint8(d.uint(math.MaxUint8))
	d.lit(`,"size_bytes":`)
	p.Size = d.int()
	if d.opt(`,"rssi_dbm":`) {
		p.RSSIdBm = d.float()
	}
	if d.opt(`,"snr_db":`) {
		p.SNRdB = d.float()
	}
	p.ForUs = d.opt(`,"for_us":true`)
	if d.opt(`,"airtime_ms":`) {
		p.AirtimeMS = d.float()
	}
	if d.opt(`,"reason":`) {
		p.Reason = d.str()
	}
	d.lit("}")
}

func (d *canonDecoder) routeSnapshot(s *RouteSnapshot) {
	d.lit(`{"ts":`)
	s.TS = d.float()
	d.lit(`,"node":`)
	s.Node = d.node()
	d.lit(`,"routes":`)
	s.Routes = decodeArray(d, &d.entries, (*canonDecoder).routeEntry)
	d.lit("}")
}

func (d *canonDecoder) routeEntry(e *RouteEntry) {
	d.lit(`{"dst":`)
	e.Dst = d.node()
	d.lit(`,"next_hop":`)
	e.NextHop = d.node()
	d.lit(`,"metric":`)
	e.Metric = uint8(d.uint(math.MaxUint8))
	d.lit(`,"age_s":`)
	e.AgeS = d.float()
	if d.opt(`,"snr_db":`) {
		e.SNRdB = d.float()
	}
	d.lit("}")
}

func (d *canonDecoder) nodeStats(s *NodeStats) {
	d.lit(`{"ts":`)
	s.TS = d.float()
	d.lit(`,"node":`)
	s.Node = d.node()
	d.lit(`,"uptime_s":`)
	s.UptimeS = d.float()
	d.lit(`,"hello_sent":`)
	s.HelloSent = d.uint(math.MaxUint64)
	d.lit(`,"data_sent":`)
	s.DataSent = d.uint(math.MaxUint64)
	d.lit(`,"ack_sent":`)
	s.AckSent = d.uint(math.MaxUint64)
	d.lit(`,"forwarded":`)
	s.Forwarded = d.uint(math.MaxUint64)
	d.lit(`,"hello_recv":`)
	s.HelloRecv = d.uint(math.MaxUint64)
	d.lit(`,"data_recv":`)
	s.DataRecv = d.uint(math.MaxUint64)
	d.lit(`,"ack_recv":`)
	s.AckRecv = d.uint(math.MaxUint64)
	d.lit(`,"overheard":`)
	s.Overheard = d.uint(math.MaxUint64)
	d.lit(`,"delivered":`)
	s.Delivered = d.uint(math.MaxUint64)
	d.lit(`,"dup_suppressed":`)
	s.DupSuppressed = d.uint(math.MaxUint64)
	d.lit(`,"drop_no_route":`)
	s.DropNoRoute = d.uint(math.MaxUint64)
	d.lit(`,"drop_ttl":`)
	s.DropTTL = d.uint(math.MaxUint64)
	d.lit(`,"drop_queue_full":`)
	s.DropQueueFull = d.uint(math.MaxUint64)
	d.lit(`,"drop_ack_timeout":`)
	s.DropAckTimeout = d.uint(math.MaxUint64)
	d.lit(`,"retries_spent":`)
	s.RetriesSpent = d.uint(math.MaxUint64)
	d.lit(`,"send_failures":`)
	s.SendFailures = d.uint(math.MaxUint64)
	d.lit(`,"route_count":`)
	s.RouteCount = d.int()
	d.lit(`,"queue_len":`)
	s.QueueLen = d.int()
	d.lit(`,"airtime_ms":`)
	s.AirtimeMS = d.float()
	d.lit(`,"duty_cycle_used":`)
	s.DutyCycleUsed = d.float()
	d.lit(`,"duty_blocked":`)
	s.DutyBlocked = d.uint(math.MaxUint64)
	d.lit(`,"rx_miss_weak":`)
	s.RxMissWeak = d.uint(math.MaxUint64)
	d.lit(`,"rx_miss_collided":`)
	s.RxMissCollided = d.uint(math.MaxUint64)
	s.Energy = d.opt(`,"energy":true`)
	if d.opt(`,"battery_frac":`) {
		s.BatteryFrac = d.float()
	}
	if d.opt(`,"battery_v":`) {
		s.BatteryV = d.float()
	}
	if d.opt(`,"harvest_w":`) {
		s.HarvestW = d.float()
	}
	d.lit("}")
}

func (d *canonDecoder) heartbeat(h *Heartbeat) {
	d.lit(`{"ts":`)
	h.TS = d.float()
	d.lit(`,"node":`)
	h.Node = d.node()
	d.lit(`,"uptime_s":`)
	h.UptimeS = d.float()
	if d.opt(`,"firmware":`) {
		h.Firmware = d.str()
	}
	d.lit("}")
}

// opt consumes s if the input continues with it.
func (d *canonDecoder) opt(s string) bool {
	if d.bad || len(d.data)-d.i < len(s) || string(d.data[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s, which the input must continue with.
func (d *canonDecoder) lit(s string) {
	if !d.opt(s) {
		d.bad = true
	}
}

func (d *canonDecoder) node() NodeID { return NodeID(d.uint(math.MaxUint16)) }

// uint parses an unsigned integer no greater than max: digits only, as
// strconv.ParseUint reads them, and no leading zero, as JSON requires
// (a 0 ends the number, so the literal after it fails on "01"). A sign,
// fraction or exponent fails too: encoding/json refuses those for an
// unsigned field.
func (d *canonDecoder) uint(max uint64) uint64 {
	data, i := d.data, d.i
	if i >= len(data) || data[i]-'0' > 9 {
		d.bad = true
		return 0
	}
	if data[i] == '0' {
		d.i = i + 1
		return 0
	}
	var v uint64
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		c := uint64(data[i] - '0')
		if v > (max-c)/10 {
			d.bad = true
			return 0
		}
		v = v*10 + c
	}
	d.i = i
	return v
}

// int parses a signed integer in the platform int's range, an optional
// minus sign before uint's digits.
func (d *canonDecoder) int() int {
	const maxInt = 1<<(strconv.IntSize-1) - 1
	if d.i < len(d.data) && d.data[d.i] == '-' {
		d.i++
		return -int(d.uint(maxInt + 1)) // -MinInt wraps to itself
	}
	return int(d.uint(maxInt))
}

// float checks a number against JSON's grammar, then parses it with
// strconv.ParseFloat as encoding/json does. Out-of-range values fail.
func (d *canonDecoder) float() float64 {
	data, start := d.data, d.i
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i]-'1' < 9:
		i = skipDigits(data, i)
	default:
		d.bad = true
		return 0
	}
	if i < len(data) && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			d.bad = true
			return 0
		}
		i = j
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			d.bad = true
			return 0
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.i = i
	return f
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	return i
}

// str parses a plain string: no backslash, no control byte and valid
// UTF-8, the strings encoding/json returns byte for byte.
func (d *canonDecoder) str() string {
	data, i := d.data, d.i
	if i >= len(data) || data[i] != '"' {
		d.bad = true
		return ""
	}
	i++
	start, ascii := i, true
	for ; i < len(data) && data[i] != '"'; i++ {
		switch c := data[i]; {
		case c == '\\' || c < 0x20:
			d.bad = true
			return ""
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s := data[start:i]
	if i == len(data) || !ascii && !utf8.Valid(s) {
		d.bad = true
		return ""
	}
	d.i = i + 1
	return intern(s)
}

// intern returns the values agents send in every batch as constants,
// and copies any other string.
func intern(s []byte) string {
	switch string(s) {
	case "rx":
		return "rx"
	case "tx":
		return "tx"
	case "drop":
		return "drop"
	case "HELLO":
		return "HELLO"
	case "DATA":
		return "DATA"
	case "ACK":
		return "ACK"
	case "no_route":
		return "no_route"
	case "no-route":
		return "no-route"
	case "ttl-expired":
		return "ttl-expired"
	case "queue-full":
		return "queue-full"
	case "meshmon-sim/1.0":
		return "meshmon-sim/1.0"
	}
	return string(s)
}
