package tsdb

import (
	"math"
	"slices"
	"sync"
)

// The raw tier's open chunk. Samples that arrive in time order are
// encoded into the head's run. Telemetry batches carry their samples in
// any order, though (a summary interval newest first, packet records as
// captured across the batch window), so a head also buffers: its newest
// in-order samples stay unencoded in tip, and once a sample arrives
// behind them every sample waits in late until a compaction merges late
// into the run. When late sorts at or after the run — a batch that only
// reorders itself — the merge appends; otherwise it re-encodes the run
// from the first sample a late one precedes.
//
// Compactions run when late fills, when a reader, Dump, a prune or a
// seal needs the head whole, and when the store's pending ring passes
// the head on (see DB.queue), which keeps the buffers a store holds
// bounded by the batches in flight, not by its series count.

// tipLen is how many of a head's newest in-order samples stay unencoded:
// a batch whose first tipLen+1 samples do not all arrive in order still
// merges by appending.
const tipLen = 3

// maxLate bounds the samples a head buffers in late before it compacts.
const maxLate = 128

// maxPending is the length of the store's pending ring (see DB.queue).
const maxPending = 256

// rawHead is the raw tier's open chunk: the samples of run, then those
// of tip, are in time order; late holds samples in append order. Every
// run sample was appended before every tip and late sample, and late
// starts with tip's samples, so a stable sort of late and a merge that
// puts run samples first on equal timestamps order the head by
// (timestamp, append order). Guarded by the owning series' mutex.
type rawHead struct {
	run  Encoder
	tip  [tipLen]Point
	late []Point // nil when empty; a latePool buffer while pending
	// mark is where the last merge resumed the run: the next one that
	// reaches no further back decodes from there.
	mark mark
	ntip uint8
}

// add appends one sample whose timestamp is not NaN, compacting when
// late fills.
func (h *rawHead) add(ts, value float64) {
	p := Point{TS: ts, Value: value}
	if len(h.late) == 0 && h.inOrder(ts) {
		if h.ntip == tipLen {
			h.encode(h.tip[0])
			copy(h.tip[:], h.tip[1:])
			h.ntip--
		}
		h.tip[h.ntip] = p
		h.ntip++
		return
	}
	if h.late == nil {
		h.late = latePool.Get().(*[maxLate]Point)[:0]
	}
	h.late = append(append(h.late, h.tip[:h.ntip]...), p)
	h.ntip = 0
	if len(h.late) >= maxLate {
		h.compact()
	}
}

// inOrder reports whether ts sorts at or after every sample in run and
// tip.
func (h *rawHead) inOrder(ts float64) bool {
	if h.ntip > 0 {
		return ts >= h.tip[h.ntip-1].TS
	}
	return h.run.count == 0 || ts >= h.run.maxTS
}

// encode appends p to the run.
func (h *rawHead) encode(p Point) {
	if h.run.count == 0 {
		h.run.Reset(1)
	}
	h.run.Append(p.TS, p.Value)
}

// count returns the samples the head holds.
func (h *rawHead) count() int { return int(h.run.count) + int(h.ntip) + len(h.late) }

// appends reports whether late, non-empty, sorts at or after the run,
// so that compacting it appends.
func (h *rawHead) appends() bool {
	if h.run.count == 0 {
		return true
	}
	for _, p := range h.late {
		if p.TS < h.run.maxTS {
			return false
		}
	}
	return true
}

// compact encodes every buffered sample into the run: by appending
// when late sorts at or after the run, otherwise by copying the run's
// samples up to the oldest late one into a new stream (views of the old
// one keep their bytes) and merging the rest with late's.
func (h *rawHead) compact() {
	for _, p := range h.tip[:h.ntip] {
		h.encode(p)
	}
	h.ntip = 0
	if len(h.late) == 0 {
		return
	}
	sortPoints(h.late)
	late := h.late
	if h.run.count > 0 && late[0].TS < h.run.maxTS {
		old := h.run.view()
		var from mark
		if h.mark.count > 0 && h.mark.t1 <= late[0].TS {
			from = h.mark
		}
		it := old.iterAt(from)
		h.mark = it.skipThrough(late[0].TS, from, old.tail)
		h.run = resumeAt(&old, h.mark)
		for it.Next() {
			ts, v := it.At()
			for len(late) > 0 && late[0].TS < ts {
				h.encode(late[0])
				late = late[1:]
			}
			h.run.Append(ts, v)
		}
	}
	for _, p := range late {
		h.encode(p)
	}
	h.release(nil)
}

// latePool recycles the late buffers heads take when they start
// buffering.
var latePool = sync.Pool{New: func() any { return new([maxLate]Point) }}

// release replaces late with keep, returning a pooled buffer to
// latePool.
func (h *rawHead) release(keep []Point) {
	if cap(h.late) == maxLate {
		latePool.Put((*[maxLate]Point)(h.late[:maxLate]))
	}
	h.late = keep
}

// oldest returns the head's smallest timestamp (+Inf when empty).
func (h *rawHead) oldest() float64 {
	low := math.Inf(1)
	if h.run.count > 0 {
		low = h.run.minTS()
	}
	if h.ntip > 0 {
		low = min(low, h.tip[0].TS)
	}
	for _, p := range h.late {
		low = min(low, p.TS)
	}
	return low
}

// bytes returns the head's stream bytes plus 16 per sample in tip and
// per slot of late's buffer.
func (h *rawHead) bytes() int { return h.run.size() + 16*(int(h.ntip)+cap(h.late)) }

// sortPoints sorts at most maxLate points by TS, keeping equal ones in
// order. It merges the input's natural runs, reversing strictly
// descending ones and extending short ones to 8 by insertion, so ordered
// or reversed input costs one pass.
func sortPoints(p []Point) {
	var ends [maxLate]int
	runs := ends[:0]
	for i := 0; i < len(p); {
		j := i + 1
		if j < len(p) && p[j].TS < p[i].TS {
			for j < len(p) && p[j].TS < p[j-1].TS {
				j++
			}
			slices.Reverse(p[i:j])
		} else {
			for j < len(p) && !(p[j].TS < p[j-1].TS) {
				j++
			}
		}
		for ; j < min(i+8, len(p)); j++ {
			x, k := p[j], j
			for ; k > i && x.TS < p[k-1].TS; k-- {
				p[k] = p[k-1]
			}
			p[k] = x
		}
		runs = append(runs, j)
		i = j
	}
	var buf [maxLate]Point
	src, dst := p, buf[:len(p)]
	for len(runs) > 1 {
		n, lo := 0, 0
		for k := 0; k < len(runs); k += 2 {
			mid, hi := runs[k], runs[min(k+1, len(runs)-1)]
			mergePoints(dst[lo:hi], src[lo:mid], src[mid:hi])
			runs[n], lo = hi, hi
			n++
		}
		runs = runs[:n]
		src, dst = dst, src
	}
	if len(p) > 0 && &src[0] != &p[0] {
		copy(p, src)
	}
}

// mergePoints merges the sorted a and b into out, a first on equal TS.
func mergePoints(out, a, b []Point) {
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if b[j].TS < a[i].TS {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// queue adds s, whose head just started buffering in late, to the
// pending ring. When the ring is full its oldest series leaves it and is
// compacted if that merge appends. A head whose late overlaps its run
// (samples spread across a window that successive batches share) waits
// to fill instead, since merging a few samples at a time would
// re-encode the run's tail for each few; it moves them out of the
// pooled buffer into one of their size.
func (db *DB) queue(s *series) {
	db.pendMu.Lock()
	var old *series
	if len(db.pend) < maxPending {
		db.pend = append(db.pend, s)
	} else {
		old, db.pend[db.pend0] = db.pend[db.pend0], s
		db.pend0 = (db.pend0 + 1) % maxPending
	}
	db.pendMu.Unlock()
	if old != nil {
		old.mu.Lock()
		old.queued = false
		switch h := &old.head; {
		case len(h.late) == 0:
		case h.appends():
			h.compact()
		case cap(h.late) == maxLate:
			h.release(slices.Clone(h.late))
		}
		old.mu.Unlock()
	}
}
