package wire

import (
	"encoding/json"
	"math"
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
	if a.err != nil {
		return dst, a.err
	}
	return a.buf, nil
}

// jsonAppender accumulates an encoding; the first unsupported float
// sets err and the output is then discarded.
type jsonAppender struct {
	buf []byte
	err error
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
	a.buf = strconv.AppendInt(a.buf, int64(p.Size), 10)
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
	a.buf = strconv.AppendInt(a.buf, int64(s.RouteCount), 10)
	a.raw(`,"queue_len":`)
	a.buf = strconv.AppendInt(a.buf, int64(s.QueueLen), 10)
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

func (a *jsonAppender) raw(s string) { a.buf = append(a.buf, s...) }

func (a *jsonAppender) uint(v uint64) { a.buf = strconv.AppendUint(a.buf, v, 10) }

// float formats f as encoding/json does: ES6 number-to-string, i.e.
// shortest 'f' form except exponent form outside [1e-6, 1e21), with
// the exponent's leading zero dropped.
func (a *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if a.err == nil {
			a.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.buf = strconv.AppendFloat(a.buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(a.buf); n >= 4 && a.buf[n-4] == 'e' && a.buf[n-3] == '-' && a.buf[n-2] == '0' {
			a.buf[n-2] = a.buf[n-1]
			a.buf = a.buf[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with encoding/json's HTML-safe
// escaping: quotes, backslashes, control bytes and <, >, & escaped,
// invalid UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped.
func (a *jsonAppender) str(s string) {
	a.buf = append(a.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			a.buf = append(a.buf, s[start:i]...)
			switch c {
			case '\\', '"':
				a.buf = append(a.buf, '\\', c)
			case '\b':
				a.buf = append(a.buf, '\\', 'b')
			case '\f':
				a.buf = append(a.buf, '\\', 'f')
			case '\n':
				a.buf = append(a.buf, '\\', 'n')
			case '\r':
				a.buf = append(a.buf, '\\', 'r')
			case '\t':
				a.buf = append(a.buf, '\\', 't')
			default:
				a.buf = append(a.buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			a.buf = append(a.buf, s[start:i]...)
			a.buf = append(a.buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			a.buf = append(a.buf, s[start:i]...)
			a.buf = append(a.buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	a.buf = append(a.buf, s[start:]...)
	a.buf = append(a.buf, '"')
}
