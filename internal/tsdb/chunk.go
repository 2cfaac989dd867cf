package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Gorilla-style chunk compression (Facebook's in-memory TSDB paper,
// VLDB'15 — the same scheme behind Prometheus and InfluxDB chunks,
// which is what the smart-campus Meshtastic deployment leans on for
// telemetry storage). A sealed chunk packs one timestamp stream plus
// one or more float64 value columns into a single bit stream:
//
//   - Timestamps use a delta-of-delta predictor: each timestamp is
//     predicted as t[i-1] + (t[i-1] - t[i-2]); a correct prediction
//     costs a single bit, a miss XOR-encodes the raw IEEE-754 bits of
//     the actual timestamp against the prediction. Because the
//     predictor works on bit patterns (not re-derived deltas), the
//     round trip is exact for every float64, including NaN payloads
//     and infinities.
//   - Values XOR each sample's bits against the previous sample's and
//     encode only the meaningful (non-zero) window, reusing the
//     previous window when it still fits — identical values cost one
//     bit, slowly moving gauges a handful.
//
// Regular telemetry (fixed reporting cadence, slowly changing values)
// lands around 1-2 bytes per 16-byte sample; adversarial streams
// degrade gracefully to slightly above raw size, never to corruption.
// Chunks are immutable once sealed, so readers iterate them without
// holding any lock. A series' open chunk is the same stream still being
// appended to: a reader takes a chunkView of it that stays valid while
// the encoder keeps writing.

// maxChunkCols bounds value columns per chunk so encoder and iterator
// state can live in fixed arrays (no per-iterator heap allocation). It
// is the widest chunk the store writes: a rollup bucket's columns.
const maxChunkCols = rollupCols

// Chunk is one sealed, immutable block of compressed samples. Fields
// are exported for gob snapshot encoding only; treat a chunk as opaque
// and read it through Iter.
type Chunk struct {
	Cols  int     // value columns per sample
	Count int     // samples in the chunk
	MinTS float64 // smallest timestamp
	MaxTS float64 // largest timestamp
	Data  []byte  // the bit stream
}

// pending is an open chunk's bits not yet written to its bytes,
// left-aligned, and their count.
type pending struct {
	bits uint64
	n    uint
}

// chunkView is an open chunk as a reader holds it: the samples written
// so far, sharing the encoder's bytes, and its pending bits by value.
type chunkView struct {
	Chunk
	tail pending
}

// Iter returns an iterator positioned before the view's first sample.
func (v *chunkView) Iter() ChunkIter { return v.iter(v.tail) }

// --- bit stream writer ---

// bitWriter accumulates bits MSB-first in a 64-bit word and appends the
// word to b once it is full, so b always holds whole words and the bits
// past them wait in buf.
type bitWriter struct {
	b   []byte
	buf uint64 // pending bits, left-aligned at the MSB
	n   uint   // number of pending bits in buf, below 64
}

// writeBits emits the low n bits of v, most significant first; n is at
// most 64 and v has no bits above them.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if free := 64 - w.n; n < free {
		w.buf |= v << (free - n)
		w.n += n
		return
	}
	w.flush(v, n)
}

// flush is writeBits for bits that fill the pending word: it appends
// the word and keeps the rest pending.
func (w *bitWriter) flush(v uint64, n uint) {
	rest := n - (64 - w.n)
	w.buf |= v >> rest
	if cap(w.b)-len(w.b) < 8 {
		// Grow by a quarter: a head is held open for its whole life, so
		// doubling's slack would stay with it.
		w.b = slices.Grow(w.b, max(64, len(w.b)/32*8))
	}
	w.b = binary.BigEndian.AppendUint64(w.b, w.buf)
	w.buf, w.n = v<<(64-rest), rest
}

// finish flushes the pending bits (zero-padding the final byte) and
// returns the stream.
func (w *bitWriter) finish() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.b = append(w.b, byte(w.buf>>56))
		w.buf <<= 8
	}
	return w.b
}

// --- bit stream reader ---

// bitReader mirrors bitWriter: a 64-bit look-ahead refilled a word at
// a time, so a readBits is a shift and a subtract in the common case.
// After b it reads tail, an open chunk's pending bits.
type bitReader struct {
	b    []byte
	idx  int    // next byte to load into buf
	buf  uint64 // upcoming bits, left-aligned at the MSB
	n    uint   // valid bits in buf
	tail pending
	err  bool // set on over-read (truncated/corrupt stream)
}

// refill tops buf up. A word load also ORs in the high bits of the next
// byte below the n valid ones; they are that byte's own bits, so loading
// it later ORs the same values in again.
func (r *bitReader) refill() {
	if r.idx+8 <= len(r.b) {
		r.buf |= binary.BigEndian.Uint64(r.b[r.idx:]) >> r.n
		k := (64 - r.n) >> 3
		r.idx += int(k)
		r.n += k << 3
		return
	}
	for r.n <= 56 && r.idx < len(r.b) {
		r.buf |= uint64(r.b[r.idx]) << (56 - r.n)
		r.idx++
		r.n += 8
	}
	if r.idx == len(r.b) && r.tail.n > 0 && r.n < 64 {
		take := min(64-r.n, r.tail.n)
		r.buf |= r.tail.bits >> r.n
		r.tail.bits <<= take
		r.tail.n -= take
		r.n += take
	}
}

// skip drops n bits already in buf.
func (r *bitReader) skip(n uint) {
	r.buf <<= n
	r.n -= n
}

// readBits reads n bits, at most 64.
func (r *bitReader) readBits(n uint) uint64 {
	if n <= r.n {
		v := r.buf >> (64 - n)
		r.skip(n)
		return v
	}
	// Take the bits buf holds, then refill it from empty, which loads a
	// whole word while one is left.
	k := r.n
	hi := r.buf >> (64 - k)
	r.buf, r.n = 0, 0
	r.refill()
	m := n - k
	if r.n < m {
		r.err = true
		r.n = 0
		return 0
	}
	lo := r.buf >> (64 - m)
	r.skip(m)
	return hi<<m | lo
}

// --- XOR window coding ---

// xorWindow remembers the leading/trailing-zero window of the last
// explicitly encoded XOR, so runs of similarly-shaped deltas reuse it.
type xorWindow struct {
	leading, trailing uint8
	valid             bool
}

// writeXOR emits one XOR delta:
//
//	0              -> delta is zero
//	1 0 <bits>     -> delta fits the previous window
//	1 1 <5b lead> <6b sig-1> <bits> -> new window
func (win *xorWindow) writeXOR(w *bitWriter, xor uint64) {
	if xor == 0 {
		w.writeBits(0, 1)
		return
	}
	lead := uint8(bits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31 // 5-bit field; sacrificing leading zeros only costs bits
	}
	trail := uint8(bits.TrailingZeros64(xor))
	if win.valid && lead >= win.leading && trail >= win.trailing {
		sig := uint(64 - win.leading - win.trailing)
		if sig <= 62 {
			w.writeBits(0b10<<sig|xor>>win.trailing, sig+2)
		} else {
			w.writeBits(0b10, 2)
			w.writeBits(xor>>win.trailing, sig)
		}
		return
	}
	sig := uint(64 - lead - trail)
	head := 0b11<<11 | uint64(lead)<<6 | uint64(sig-1)
	if sig <= 51 {
		w.writeBits(head<<sig|xor>>trail, sig+13)
	} else {
		w.writeBits(head, 13)
		w.writeBits(xor>>trail, sig)
	}
	win.leading, win.trailing, win.valid = lead, trail, true
}

func (win *xorWindow) readXOR(r *bitReader) uint64 {
	if r.n < 13 {
		r.refill()
	}
	switch {
	case r.n >= 1 && r.buf>>63 == 0:
		r.skip(1)
		return 0
	case r.n >= 2 && r.buf>>62 == 0b10:
		r.skip(2)
		sig := uint(64 - win.leading - win.trailing)
		return r.readBits(sig) << win.trailing
	case r.n >= 13:
		lead := uint8(r.buf >> 57 & 31)
		sig := uint8(r.buf>>51&63) + 1
		r.skip(13)
		trail := 64 - lead - sig
		win.leading, win.trailing, win.valid = lead, trail, true
		return r.readBits(uint(sig)) << trail
	}
	r.err = true
	r.n = 0
	return 0
}

// --- encoder ---

// Encoder compresses a stream of (timestamp, values...) samples into a
// chunk. Timestamps must be appended in non-decreasing order: the
// chunk's MinTS is its first. The encoder is also every series' open
// chunk, so its fields are packed small, and readers take views of it
// while it keeps encoding. The zero value is not usable; call Reset
// first.
type Encoder struct {
	w     bitWriter
	maxTS float64

	t0, t1 float64 // previous two timestamps

	prev  [maxChunkCols]uint64 // previous value bits per column
	count int32
	tsWin xorWindow
	vwin  [maxChunkCols]xorWindow
	cols  uint8
}

// Reset prepares the encoder for a fresh chunk of cols value columns.
// The stream grows by append into a new array: views of the previous
// stream keep theirs.
func (e *Encoder) Reset(cols int) {
	if cols < 1 || cols > maxChunkCols {
		panic(fmt.Sprintf("tsdb: encoder cols %d out of range [1,%d]", cols, maxChunkCols))
	}
	*e = Encoder{cols: uint8(cols)}
}

// predictTS is the shared timestamp predictor. Written to avoid any
// fusable multiply-add so encode and decode agree bit-for-bit on every
// platform.
func predictTS(count int, t0, t1 float64) float64 {
	if count == 1 {
		return t1
	}
	d := t1 - t0
	return t1 + d
}

// appendTS encodes one timestamp.
func (e *Encoder) appendTS(ts float64) {
	b := math.Float64bits(ts)
	if e.count == 0 {
		e.w.writeBits(b, 64)
		e.maxTS = ts
	} else {
		pred := predictTS(int(e.count), e.t0, e.t1)
		e.tsWin.writeXOR(&e.w, b^math.Float64bits(pred))
		if ts > e.maxTS {
			e.maxTS = ts
		}
	}
	e.t0, e.t1 = e.t1, ts
	e.count++
}

// appendVal encodes one value into column col.
func (e *Encoder) appendVal(col int, v float64) {
	b := math.Float64bits(v)
	if e.count == 1 { // appendTS already ran for this sample
		e.w.writeBits(b, 64)
	} else {
		e.vwin[col].writeXOR(&e.w, b^e.prev[col])
	}
	e.prev[col] = b
}

// Append adds one single-column sample (the raw-tier hot path).
func (e *Encoder) Append(ts, v float64) {
	e.appendTS(ts)
	e.appendVal(0, v)
}

// AppendVals adds one multi-column sample; len(vals) must equal the
// encoder's column count.
func (e *Encoder) AppendVals(ts float64, vals []float64) {
	if len(vals) != int(e.cols) {
		panic(fmt.Sprintf("tsdb: encoder got %d values, want %d", len(vals), e.cols))
	}
	e.appendTS(ts)
	for i, v := range vals {
		e.appendVal(i, v)
	}
}

// Count returns the number of samples appended so far.
func (e *Encoder) Count() int { return int(e.count) }

// minTS returns the first timestamp, which the stream's first word
// holds whole; the encoder must hold a sample.
func (e *Encoder) minTS() float64 { return math.Float64frombits(binary.BigEndian.Uint64(e.w.b)) }

// size returns the bytes the stream takes so far, pending bits rounded
// up to a byte.
func (e *Encoder) size() int { return len(e.w.b) + int(e.w.n+7)/8 }

// Chunk seals the stream into an immutable chunk whose Data is a copy
// of exactly its length. The encoder must be Reset before reuse.
func (e *Encoder) Chunk() *Chunk {
	c := e.view().Chunk
	c.Data = append([]byte(nil), e.w.finish()...)
	return &c
}

// view returns the samples appended so far. The encoder only ever
// writes past len(b), so the view stays valid while it appends.
func (e *Encoder) view() chunkView {
	v := chunkView{
		Chunk: Chunk{Cols: int(e.cols), Count: int(e.count), MaxTS: e.maxTS, Data: e.w.b[:len(e.w.b):len(e.w.b)]},
		tail:  pending{bits: e.w.buf, n: e.w.n},
	}
	if e.count > 0 {
		v.MinTS = e.minTS()
	}
	return v
}

// chunk returns the view as a standalone chunk: a copy of its bytes,
// then its pending bits zero-padded to a byte — what Encoder.Chunk
// would seal, with the encoder left open.
func (v *chunkView) chunk() Chunk {
	w := bitWriter{b: slices.Clone(v.Data), buf: v.tail.bits, n: v.tail.n}
	c := v.Chunk
	c.Data = w.finish()
	return c
}

// --- iterator ---

// ChunkIter decodes a chunk sample by sample. It is a value type: a
// fresh iterator costs no heap allocation, and concurrent iterations
// over the same chunk are safe because chunks are immutable.
type ChunkIter struct {
	r     bitReader
	cols  int
	count int
	i     int

	t0, t1 float64
	tsWin  xorWindow

	prev [maxChunkCols]uint64
	vwin [maxChunkCols]xorWindow
	vals [maxChunkCols]float64
	ts   float64
}

// Iter returns an iterator positioned before the first sample.
func (c *Chunk) Iter() ChunkIter { return c.iter(pending{}) }

// iter returns an iterator over c's bytes followed by the bits p.
func (c *Chunk) iter(p pending) ChunkIter {
	cols := c.Cols
	if cols < 1 || cols > maxChunkCols {
		cols = 1
	}
	return ChunkIter{r: bitReader{b: c.Data, tail: p}, cols: cols, count: c.Count}
}

// Next decodes the next sample; it returns false at the end of the
// chunk or on a truncated stream.
func (it *ChunkIter) Next() bool {
	if it.i >= it.count || it.r.err {
		return false
	}
	return it.readVals(it.readTS())
}

// readTS decodes the next sample's timestamp.
func (it *ChunkIter) readTS() float64 {
	if it.i == 0 {
		return math.Float64frombits(it.r.readBits(64))
	}
	pred := predictTS(it.i, it.t0, it.t1)
	return math.Float64frombits(math.Float64bits(pred) ^ it.tsWin.readXOR(&it.r))
}

// readVals decodes the values of the sample whose timestamp readTS
// returned and completes it.
func (it *ChunkIter) readVals(ts float64) bool {
	for c := 0; c < it.cols; c++ {
		var vb uint64
		if it.i == 0 {
			vb = it.r.readBits(64)
		} else {
			vb = it.prev[c] ^ it.vwin[c].readXOR(&it.r)
		}
		it.prev[c] = vb
		it.vals[c] = math.Float64frombits(vb)
	}
	if it.r.err {
		return false
	}
	it.t0, it.t1 = it.t1, ts
	it.ts = ts
	it.i++
	return true
}

// TS returns the current sample's timestamp.
func (it *ChunkIter) TS() float64 { return it.ts }

// Value returns the current sample's value in column col.
func (it *ChunkIter) Value(col int) float64 { return it.vals[col] }

// At returns the current sample's timestamp and first-column value —
// the raw-tier convenience accessor.
func (it *ChunkIter) At() (ts, value float64) { return it.ts, it.vals[0] }

// --- resuming a single-column stream ---

// mark is a single-column stream's codec state after its first count
// samples: where an encoder can continue the stream, or an iterator
// start decoding it, without going through those samples.
type mark struct {
	bits        int // stream bits the samples take
	count       int
	t0, t1, max float64
	prev        uint64
	tsWin, vwin xorWindow
}

// skipThrough advances the iterator over a sorted single-column chunk
// past its samples with TS <= ts and returns the mark before the first
// later one; the iterator is left there. m is the mark the iterator
// started from, tail the pending bits of the chunk it reads.
func (it *ChunkIter) skipThrough(ts float64, m mark, tail pending) mark {
	max := m.max
	for it.i < it.count {
		r, win := it.r, it.tsWin
		t := it.readTS()
		if t > ts || it.r.err {
			it.r, it.tsWin = r, win
			break
		}
		it.readVals(t)
		if t > max || it.i == 1 {
			max = t
		}
	}
	bits := it.r.idx*8 + int(tail.n-it.r.tail.n) - int(it.r.n)
	return mark{bits, it.i, it.t0, it.t1, max, it.prev[0], it.tsWin, it.vwin[0]}
}

// iterAt returns an iterator over v positioned at m.
func (v *chunkView) iterAt(m mark) ChunkIter {
	it := v.iter(v.tail)
	if m.count == 0 {
		return it
	}
	start := min(m.bits/8, len(v.Data))
	it.r.idx = start
	it.r.refill()
	it.r.skip(uint(m.bits - start*8))
	it.i, it.t0, it.t1, it.prev[0], it.tsWin, it.vwin[0] = m.count, m.t0, m.t1, m.prev, m.tsWin, m.vwin
	return it
}

// resumeAt returns an encoder holding the first m.count samples of the
// single-column stream v, copied into a new array, ready to append.
func resumeAt(v *chunkView, m mark) Encoder {
	e := Encoder{cols: 1}
	if m.count == 0 {
		return e
	}
	words := m.bits / 64 * 8
	word := v.tail.bits
	if words < len(v.Data) {
		word = binary.BigEndian.Uint64(v.Data[words:])
	}
	e.w.b = append(make([]byte, 0, len(v.Data)+len(v.Data)/4+16), v.Data[:words]...)
	e.w.n = uint(m.bits % 64)
	e.w.buf = word &^ (^uint64(0) >> e.w.n)
	e.count, e.t0, e.t1, e.maxTS, e.prev[0], e.tsWin, e.vwin[0] = int32(m.count), m.t0, m.t1, m.max, m.prev, m.tsWin, m.vwin
	return e
}

// bucket returns the current sample of a rollup chunk.
func (it *ChunkIter) bucket() RollupSample {
	v := &it.vals
	return RollupSample{TS: it.ts, Count: v[0], Sum: v[1], Min: v[2], Max: v[3], Last: v[4], lastTS: it.ts}
}
