package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Compact binary codec for Batch — the bandwidth-lean alternative to the
// JSON format the paper's prototype uses. Constrained nodes (or metered
// uplinks) cut telemetry bytes by roughly 4x; T1 quantifies the gap.
//
// Layout (little-endian, uvarint for counts/sizes):
//
//	magic 'M''B', version, node u16, seqNo uvarint, sentAt f64
//	nPackets, nRoutes, nStats, nHeartbeats (uvarints), then each record.
//
// Record node IDs are implied by the envelope; timestamps are f64
// seconds, measurements f32.

const (
	binMagic0 = 'M'
	binMagic1 = 'B'
	// binVersion 2 appends a flags byte to every stats record; when the
	// energy bit is set, three f32 battery fields follow. The decoder
	// still accepts version-1 images (pre-energy firmware and archived
	// WAL segments), which simply have no flags byte.
	binVersion       = 2
	binVersionLegacy = 1
)

// stats flag bits (version >= 2).
const statsFlagEnergy = 1 << 0

// ErrBinaryFormat reports a malformed binary batch.
var ErrBinaryFormat = errors.New("wire: malformed binary batch")

// packet-type dictionary: well-known mesh types get one byte; anything
// else is carried as an inline string.
var typeCodes = map[string]byte{
	"HELLO": 1, "DATA": 2, "ACK": 3, "FRAG": 4, "FRAGREQ": 5, "FRAGACK": 6,
}

var typeNames = func() map[byte]string {
	m := make(map[byte]string, len(typeCodes))
	for name, code := range typeCodes {
		m[code] = name
	}
	return m
}()

var eventCodes = map[Event]byte{EventRx: 1, EventTx: 2, EventDrop: 3}
var eventNames = map[byte]Event{1: EventRx, 2: EventTx, 3: EventDrop}

type binWriter struct {
	buf []byte
}

func (w *binWriter) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *binWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *binWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *binWriter) f32(v float64) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(float32(v)))
}
func (w *binWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = ErrBinaryFormat
	}
}

func (r *binReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *binReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) f32() float64 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return float64(v)
}

func (r *binReader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// packet flag bits.
const (
	flagForUs = 1 << 0
)

// binWriters recycles encode scratch space for sizing calls, where the
// encoding is measured and thrown away.
var binWriters = sync.Pool{New: func() any { return new(binWriter) }}

// EncodeBatchBinary validates and serialises a batch in the compact
// binary format. The returned slice is owned by the caller.
func EncodeBatchBinary(b Batch) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	w := &binWriter{buf: make([]byte, 0, 64+40*b.Len())}
	w.encode(b)
	return w.buf, nil
}

// encode appends the batch's binary image to the writer.
func (w *binWriter) encode(b Batch) {
	w.u8(binMagic0)
	w.u8(binMagic1)
	w.u8(binVersion)
	w.u16(uint16(b.Node))
	w.uvarint(b.SeqNo)
	w.f64(b.SentAt)
	w.uvarint(uint64(len(b.Packets)))
	w.uvarint(uint64(len(b.Routes)))
	w.uvarint(uint64(len(b.Stats)))
	w.uvarint(uint64(len(b.Heartbeats)))

	for _, p := range b.Packets {
		w.f64(p.TS)
		w.u8(eventCodes[p.Event])
		code := typeCodes[p.Type]
		w.u8(code)
		if code == 0 {
			w.str(p.Type)
		}
		w.u16(uint16(p.Src))
		w.u16(uint16(p.Dst))
		w.u16(uint16(p.Via))
		w.u16(p.Seq)
		w.u8(p.TTL)
		w.uvarint(uint64(p.Size))
		var flags byte
		if p.ForUs {
			flags |= flagForUs
		}
		w.u8(flags)
		switch p.Event {
		case EventRx:
			w.f32(p.RSSIdBm)
			w.f32(p.SNRdB)
			w.f32(p.AirtimeMS)
		case EventTx:
			w.f32(p.AirtimeMS)
		case EventDrop:
			w.str(p.Reason)
		}
	}
	for _, rs := range b.Routes {
		w.f64(rs.TS)
		w.uvarint(uint64(len(rs.Routes)))
		for _, e := range rs.Routes {
			w.u16(uint16(e.Dst))
			w.u16(uint16(e.NextHop))
			w.u8(e.Metric)
			w.f32(e.AgeS)
			w.f32(e.SNRdB)
		}
	}
	for _, s := range b.Stats {
		w.f64(s.TS)
		w.f32(s.UptimeS)
		counters := s.counterFields()
		for _, v := range counters {
			w.uvarint(v)
		}
		w.uvarint(uint64(s.RouteCount))
		w.uvarint(uint64(s.QueueLen))
		w.f32(s.AirtimeMS)
		w.f32(s.DutyCycleUsed)
		var flags byte
		if s.Energy {
			flags |= statsFlagEnergy
		}
		w.u8(flags)
		if s.Energy {
			w.f32(s.BatteryFrac)
			w.f32(s.BatteryV)
			w.f32(s.HarvestW)
		}
	}
	for _, h := range b.Heartbeats {
		w.f64(h.TS)
		w.f32(h.UptimeS)
		w.str(h.Firmware)
	}
}

// numCounterFields is the length of counterFields.
const numCounterFields = 19

// counterFields lists the NodeStats counters in their wire order. The
// fixed-size array stays on the stack.
func (s *NodeStats) counterFields() [numCounterFields]uint64 {
	return [numCounterFields]uint64{
		s.HelloSent, s.DataSent, s.AckSent, s.Forwarded,
		s.HelloRecv, s.DataRecv, s.AckRecv, s.Overheard,
		s.Delivered, s.DupSuppressed,
		s.DropNoRoute, s.DropTTL, s.DropQueueFull, s.DropAckTimeout,
		s.RetriesSpent, s.SendFailures,
		s.DutyBlocked, s.RxMissWeak, s.RxMissCollided,
	}
}

// setCounterFields is the decode-side inverse of counterFields.
func (s *NodeStats) setCounterFields(vs [numCounterFields]uint64) {
	s.HelloSent, s.DataSent, s.AckSent, s.Forwarded = vs[0], vs[1], vs[2], vs[3]
	s.HelloRecv, s.DataRecv, s.AckRecv, s.Overheard = vs[4], vs[5], vs[6], vs[7]
	s.Delivered, s.DupSuppressed = vs[8], vs[9]
	s.DropNoRoute, s.DropTTL, s.DropQueueFull, s.DropAckTimeout = vs[10], vs[11], vs[12], vs[13]
	s.RetriesSpent, s.SendFailures = vs[14], vs[15]
	s.DutyBlocked, s.RxMissWeak, s.RxMissCollided = vs[16], vs[17], vs[18]
}

// IsBinaryBatch reports whether data starts with the binary magic.
func IsBinaryBatch(data []byte) bool {
	return len(data) >= 3 && data[0] == binMagic0 && data[1] == binMagic1
}

// DecodeBatchBinary parses and validates a binary batch.
func DecodeBatchBinary(data []byte) (Batch, error) { return decodeBinary(data, false) }

// DecodeLoggedBatch is DecodeBatchBinary for a batch read back from a
// write-ahead log: it accepts the NaN and +Inf timestamps that logs
// written before Validate refused them may hold.
func DecodeLoggedBatch(data []byte) (Batch, error) { return decodeBinary(data, true) }

// decodeBinary parses a binary batch and validates it, leniently for
// logged batches (see Batch.validate).
func decodeBinary(data []byte, logged bool) (Batch, error) {
	r := &binReader{buf: data}
	if r.u8() != binMagic0 || r.u8() != binMagic1 {
		return Batch{}, fmt.Errorf("%w: bad magic", ErrBinaryFormat)
	}
	version := r.u8()
	if version != binVersion && version != binVersionLegacy {
		return Batch{}, fmt.Errorf("%w: unsupported version %d", ErrBinaryFormat, version)
	}
	var b Batch
	b.Node = NodeID(r.u16())
	b.SeqNo = r.uvarint()
	b.SentAt = r.f64()
	nPkts := r.uvarint()
	nRoutes := r.uvarint()
	nStats := r.uvarint()
	nHBs := r.uvarint()
	if r.err != nil {
		return Batch{}, r.err
	}
	const maxRecords = 1 << 20
	if nPkts+nRoutes+nStats+nHBs > maxRecords {
		return Batch{}, fmt.Errorf("%w: implausible record count", ErrBinaryFormat)
	}

	for i := uint64(0); i < nPkts && r.err == nil; i++ {
		var p PacketRecord
		p.Node = b.Node
		p.TS = r.f64()
		p.Event = eventNames[r.u8()]
		code := r.u8()
		if code == 0 {
			p.Type = r.str()
		} else {
			p.Type = typeNames[code]
		}
		p.Src = NodeID(r.u16())
		p.Dst = NodeID(r.u16())
		p.Via = NodeID(r.u16())
		p.Seq = r.u16()
		p.TTL = r.u8()
		p.Size = int(r.uvarint())
		flags := r.u8()
		p.ForUs = flags&flagForUs != 0
		switch p.Event {
		case EventRx:
			p.RSSIdBm = r.f32()
			p.SNRdB = r.f32()
			p.AirtimeMS = r.f32()
		case EventTx:
			p.AirtimeMS = r.f32()
		case EventDrop:
			p.Reason = r.str()
		}
		b.Packets = append(b.Packets, p)
	}
	for i := uint64(0); i < nRoutes && r.err == nil; i++ {
		var rs RouteSnapshot
		rs.Node = b.Node
		rs.TS = r.f64()
		n := r.uvarint()
		if r.err != nil || n > maxRecords {
			r.fail()
			break
		}
		for j := uint64(0); j < n && r.err == nil; j++ {
			rs.Routes = append(rs.Routes, RouteEntry{
				Dst:     NodeID(r.u16()),
				NextHop: NodeID(r.u16()),
				Metric:  r.u8(),
				AgeS:    r.f32(),
				SNRdB:   r.f32(),
			})
		}
		b.Routes = append(b.Routes, rs)
	}
	for i := uint64(0); i < nStats && r.err == nil; i++ {
		var s NodeStats
		s.Node = b.Node
		s.TS = r.f64()
		s.UptimeS = r.f32()
		var vs [numCounterFields]uint64
		for j := range vs {
			vs[j] = r.uvarint()
		}
		s.setCounterFields(vs)
		s.RouteCount = int(r.uvarint())
		s.QueueLen = int(r.uvarint())
		s.AirtimeMS = r.f32()
		s.DutyCycleUsed = r.f32()
		if version >= 2 {
			flags := r.u8()
			if flags&statsFlagEnergy != 0 {
				s.Energy = true
				s.BatteryFrac = r.f32()
				s.BatteryV = r.f32()
				s.HarvestW = r.f32()
			}
		}
		b.Stats = append(b.Stats, s)
	}
	for i := uint64(0); i < nHBs && r.err == nil; i++ {
		var h Heartbeat
		h.Node = b.Node
		h.TS = r.f64()
		h.UptimeS = r.f32()
		h.Firmware = r.str()
		b.Heartbeats = append(b.Heartbeats, h)
	}
	if r.err != nil {
		return Batch{}, r.err
	}
	if r.off != len(data) {
		return Batch{}, fmt.Errorf("%w: %d trailing bytes", ErrBinaryFormat, len(data)-r.off)
	}
	if err := b.validate(logged); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// EncodedSizeBinary returns the binary-encoded size of the batch,
// encoding into a pooled scratch buffer so sizing allocates nothing.
func EncodedSizeBinary(b Batch) (int, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	w := binWriters.Get().(*binWriter)
	w.encode(b)
	n := len(w.buf)
	w.buf = w.buf[:0]
	binWriters.Put(w)
	return n, nil
}
