package wire

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// AppendBatchJSON appends the JSON encoding of b to dst and returns the
// extended slice. The output is byte-identical to json.Marshal(b) — the
// same omitempty rules, ES6 float formatting and HTML-safe string
// escaping — but is produced without reflection, so sizing and encoding
// a batch cost one pass over its records. Like json.Marshal it fails on
// NaN and ±Inf, returning dst unextended. It does not validate b.
func AppendBatchJSON(dst []byte, b *Batch) ([]byte, error) {
	a := jsonAppender{buf: dst}
	a.batch(b)
	if a.err != nil {
		return dst, a.err
	}
	return a.buf, nil
}

// AppendJSONFloat appends f as encoding/json encodes a float64 and
// returns the extended slice. Like json.Marshal it refuses NaN and ±Inf,
// returning dst unextended and the error json.Marshal returns.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	a := jsonAppender{buf: dst}
	a.float(f)
	if a.err != nil {
		return dst, a.err
	}
	return a.buf, nil
}

// AppendJSONString appends s as encoding/json encodes a string, with its
// HTML-safe escaping, and returns the extended slice.
func AppendJSONString(dst []byte, s string) []byte {
	a := jsonAppender{buf: dst}
	a.str(s)
	return a.buf
}

// jsonSize returns len(AppendBatchJSON(nil, b)) by counting the bytes
// the same walk would write, without writing them.
func jsonSize(b *Batch) (int, error) {
	a := jsonAppender{count: true}
	a.batch(b)
	return a.n, a.err
}

// jsonAppender accumulates an encoding, or in counting mode only its
// length; the first unsupported float sets err and the output is then
// discarded.
type jsonAppender struct {
	buf   []byte
	count bool // add lengths to n instead of appending to buf
	n     int
	err   error
}

func (a *jsonAppender) batch(b *Batch) {
	a.raw(`{"node":`)
	a.uint(uint64(b.Node))
	a.raw(`,"seq_no":`)
	a.uint(b.SeqNo)
	a.raw(`,"sent_at":`)
	a.float(b.SentAt)
	if len(b.Packets) > 0 {
		a.raw(`,"packets":[`)
		for i := range b.Packets {
			if i > 0 {
				a.raw(",")
			}
			a.packet(&b.Packets[i])
		}
		a.raw("]")
	}
	if len(b.Routes) > 0 {
		a.raw(`,"routes":[`)
		for i := range b.Routes {
			if i > 0 {
				a.raw(",")
			}
			a.routes(&b.Routes[i])
		}
		a.raw("]")
	}
	if len(b.Stats) > 0 {
		a.raw(`,"stats":[`)
		for i := range b.Stats {
			if i > 0 {
				a.raw(",")
			}
			a.stats(&b.Stats[i])
		}
		a.raw("]")
	}
	if len(b.Heartbeats) > 0 {
		a.raw(`,"heartbeats":[`)
		for i := range b.Heartbeats {
			if i > 0 {
				a.raw(",")
			}
			a.heartbeat(&b.Heartbeats[i])
		}
		a.raw("]")
	}
	a.raw("}")
}

func (a *jsonAppender) packet(p *PacketRecord) {
	a.raw(`{"ts":`)
	a.float(p.TS)
	a.raw(`,"node":`)
	a.uint(uint64(p.Node))
	a.raw(`,"event":`)
	a.str(string(p.Event))
	a.raw(`,"type":`)
	a.str(p.Type)
	a.raw(`,"src":`)
	a.uint(uint64(p.Src))
	a.raw(`,"dst":`)
	a.uint(uint64(p.Dst))
	a.raw(`,"via":`)
	a.uint(uint64(p.Via))
	a.raw(`,"seq":`)
	a.uint(uint64(p.Seq))
	a.raw(`,"ttl":`)
	a.uint(uint64(p.TTL))
	a.raw(`,"size_bytes":`)
	a.int(int64(p.Size))
	if p.RSSIdBm != 0 {
		a.raw(`,"rssi_dbm":`)
		a.float(p.RSSIdBm)
	}
	if p.SNRdB != 0 {
		a.raw(`,"snr_db":`)
		a.float(p.SNRdB)
	}
	if p.ForUs {
		a.raw(`,"for_us":true`)
	}
	if p.AirtimeMS != 0 {
		a.raw(`,"airtime_ms":`)
		a.float(p.AirtimeMS)
	}
	if p.Reason != "" {
		a.raw(`,"reason":`)
		a.str(p.Reason)
	}
	a.raw("}")
}

func (a *jsonAppender) routes(s *RouteSnapshot) {
	a.raw(`{"ts":`)
	a.float(s.TS)
	a.raw(`,"node":`)
	a.uint(uint64(s.Node))
	if s.Routes == nil {
		// No omitempty: a nil table encodes as null, an empty one as [].
		a.raw(`,"routes":null}`)
		return
	}
	a.raw(`,"routes":[`)
	for i := range s.Routes {
		e := &s.Routes[i]
		if i > 0 {
			a.raw(",")
		}
		a.raw(`{"dst":`)
		a.uint(uint64(e.Dst))
		a.raw(`,"next_hop":`)
		a.uint(uint64(e.NextHop))
		a.raw(`,"metric":`)
		a.uint(uint64(e.Metric))
		a.raw(`,"age_s":`)
		a.float(e.AgeS)
		if e.SNRdB != 0 {
			a.raw(`,"snr_db":`)
			a.float(e.SNRdB)
		}
		a.raw("}")
	}
	a.raw("]}")
}

func (a *jsonAppender) stats(s *NodeStats) {
	a.raw(`{"ts":`)
	a.float(s.TS)
	a.raw(`,"node":`)
	a.uint(uint64(s.Node))
	a.raw(`,"uptime_s":`)
	a.float(s.UptimeS)
	a.raw(`,"hello_sent":`)
	a.uint(s.HelloSent)
	a.raw(`,"data_sent":`)
	a.uint(s.DataSent)
	a.raw(`,"ack_sent":`)
	a.uint(s.AckSent)
	a.raw(`,"forwarded":`)
	a.uint(s.Forwarded)
	a.raw(`,"hello_recv":`)
	a.uint(s.HelloRecv)
	a.raw(`,"data_recv":`)
	a.uint(s.DataRecv)
	a.raw(`,"ack_recv":`)
	a.uint(s.AckRecv)
	a.raw(`,"overheard":`)
	a.uint(s.Overheard)
	a.raw(`,"delivered":`)
	a.uint(s.Delivered)
	a.raw(`,"dup_suppressed":`)
	a.uint(s.DupSuppressed)
	a.raw(`,"drop_no_route":`)
	a.uint(s.DropNoRoute)
	a.raw(`,"drop_ttl":`)
	a.uint(s.DropTTL)
	a.raw(`,"drop_queue_full":`)
	a.uint(s.DropQueueFull)
	a.raw(`,"drop_ack_timeout":`)
	a.uint(s.DropAckTimeout)
	a.raw(`,"retries_spent":`)
	a.uint(s.RetriesSpent)
	a.raw(`,"send_failures":`)
	a.uint(s.SendFailures)
	a.raw(`,"route_count":`)
	a.int(int64(s.RouteCount))
	a.raw(`,"queue_len":`)
	a.int(int64(s.QueueLen))
	a.raw(`,"airtime_ms":`)
	a.float(s.AirtimeMS)
	a.raw(`,"duty_cycle_used":`)
	a.float(s.DutyCycleUsed)
	a.raw(`,"duty_blocked":`)
	a.uint(s.DutyBlocked)
	a.raw(`,"rx_miss_weak":`)
	a.uint(s.RxMissWeak)
	a.raw(`,"rx_miss_collided":`)
	a.uint(s.RxMissCollided)
	if s.Energy {
		a.raw(`,"energy":true`)
	}
	if s.BatteryFrac != 0 {
		a.raw(`,"battery_frac":`)
		a.float(s.BatteryFrac)
	}
	if s.BatteryV != 0 {
		a.raw(`,"battery_v":`)
		a.float(s.BatteryV)
	}
	if s.HarvestW != 0 {
		a.raw(`,"harvest_w":`)
		a.float(s.HarvestW)
	}
	a.raw("}")
}

func (a *jsonAppender) heartbeat(h *Heartbeat) {
	a.raw(`{"ts":`)
	a.float(h.TS)
	a.raw(`,"node":`)
	a.uint(uint64(h.Node))
	a.raw(`,"uptime_s":`)
	a.float(h.UptimeS)
	if h.Firmware != "" {
		a.raw(`,"firmware":`)
		a.str(h.Firmware)
	}
	a.raw("}")
}

func (a *jsonAppender) raw(s string) {
	if a.count {
		a.n += len(s)
		return
	}
	a.buf = append(a.buf, s...)
}

func (a *jsonAppender) uint(v uint64) {
	if a.count {
		a.n += digits(v)
		return
	}
	a.buf = strconv.AppendUint(a.buf, v, 10)
}

func (a *jsonAppender) int(v int64) {
	if v < 0 {
		a.raw("-")
		v = -v // MinInt64 stays put, and converts to its magnitude below
	}
	a.uint(uint64(v))
}

// pow10 holds 10^i for every i a uint64 reaches.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digits returns the length of v in decimal.
func digits(v uint64) int {
	v |= 1                          // same length (powers of ten are even), and v > 0
	t := bits.Len64(v) * 1233 >> 12 // log10(2) ≈ 1233/4096: ⌊log10 v⌋ or one more
	// v - 10^t wraps, setting the top bit, exactly when v < 10^t.
	return t + 1 - int((v-pow10[t])>>63)
}

// gridBound bounds the quarter counts float writes exactly: below
// 2^42 quarters (|f| < 2^40) a float64's spacing is at most 2^-12, so
// no decimal shorter than k/4's own rounds to it and the exact
// expansion is the shortest one. Near 2^52 quarters a shorter decimal
// does (json.Marshal writes 740385025538228.2 for ...228.25).
const gridBound = 1 << 42

// quarterFrac holds the fraction each residue of a quarter count prints.
var quarterFrac = [4]string{"", ".25", ".5", ".75"}

// float formats f as encoding/json does: ES6 number-to-string, i.e.
// shortest 'f' form except exponent form outside [1e-6, 1e21), with
// the exponent's leading zero dropped. A whole number of quarters —
// what agents report: integer ages and RSSI, SNR in the SX127x's
// 0.25 dB steps — is written exactly without the shortest-form search.
func (a *jsonAppender) float(f float64) {
	if q := f * 4; q > -gridBound && q < gridBound {
		if k := int64(q); float64(k) == q && math.Float64bits(f) != 1<<63 { // not -0
			a.quarters(k)
			return
		}
	}
	a.shortest(f)
}

// quarters writes k/4 for |k| < gridBound.
func (a *jsonAppender) quarters(k int64) {
	sign := k >> 63 // 0 or -1
	u := uint64((k ^ sign) - sign)
	if a.count {
		a.n += int(-sign) + digits(u>>2) + len(quarterFrac[u&3])
		return
	}
	if sign != 0 {
		a.buf = append(a.buf, '-')
	}
	a.buf = strconv.AppendUint(a.buf, u>>2, 10)
	a.buf = append(a.buf, quarterFrac[u&3]...)
}

// shortest writes f, or records it as unsupported if NaN or ±Inf.
func (a *jsonAppender) shortest(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if a.err == nil {
			a.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	if a.count {
		var scratch [32]byte
		a.n += len(appendES6(scratch[:0], f))
		return
	}
	a.buf = appendES6(a.buf, f)
}

// appendES6 appends f's shortest ES6 form to dst.
func appendES6(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with encoding/json's HTML-safe
// escaping: quotes, backslashes, control bytes and <, >, & escaped,
// invalid UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped.
func (a *jsonAppender) str(s string) {
	a.raw(`"`)
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			a.raw(s[start:i])
			switch c {
			case '\\':
				a.raw(`\\`)
			case '"':
				a.raw(`\"`)
			case '\b':
				a.raw(`\b`)
			case '\f':
				a.raw(`\f`)
			case '\n':
				a.raw(`\n`)
			case '\r':
				a.raw(`\r`)
			case '\t':
				a.raw(`\t`)
			default:
				a.raw(`\u00`)
				a.raw(hexDigits[c>>4 : c>>4+1])
				a.raw(hexDigits[c&0xF : c&0xF+1])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			a.raw(s[start:i])
			a.raw(`\ufffd`)
		case r == '\u2028' || r == '\u2029':
			a.raw(s[start:i])
			a.raw(`\u202`)
			a.raw(hexDigits[r&0xF : r&0xF+1])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	a.raw(s[start:])
	a.raw(`"`)
}
