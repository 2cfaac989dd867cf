package radio

import (
	"math"

	"lorameshmon/internal/phy"
)

// linkRow is one transmitter's link table: the static mean path loss
// (log-distance loss plus the pair's shadowing offset) to its grid
// candidates, keyed by receiver index: pl[i] is the loss to the radio
// with Radio.idx base+i. Path loss does not depend on the frame, so an
// entry is computed once and read by every frame the radio sends, by
// the interferer loop of frames it overlaps and by BusyAt. NaN marks an
// entry to compute.
//
// A row is kept only when its candidates' indices are nearly contiguous
// (at most 1.25 slots per candidate, as when every radio hears every
// other), so it costs at most 10 bytes per candidate. Elsewhere, and for
// radios attached after a row was built, path loss is computed per use.
// The zero row holds nothing.
type linkRow struct {
	base uint16
	pl   []float64
}

// slot returns the entry for receiver idx, or -1.
func (lr *linkRow) slot(idx uint16) int {
	if i := int(idx) - int(lr.base); uint(i) < uint(len(lr.pl)) {
		return i
	}
	return -1
}

// drop forgets the row. Its entries are poisoned first, so a finish
// still walking a copy of it recomputes from live positions.
func (lr *linkRow) drop() {
	for i := range lr.pl {
		lr.pl[i] = math.NaN()
	}
	*lr = linkRow{}
}

// pathLoss is the static mean path loss from tx to rx at their current
// positions: log-distance loss plus the pair's shadowing offset.
func (m *Medium) pathLoss(tx, rx *Radio) float64 {
	return m.cfg.Channel.PathLossDB(tx.pos.Distance(rx.pos)) + m.shadowOffset(tx.id, rx.id)
}

// buildLinks gives r a row spanning cands, its current grid candidates,
// with every entry still to compute: finish fills them as it decides
// receptions. Rows are allocated afresh, never reused, so a finish
// walking a copy of an old row is not overwritten under it.
func buildLinks(r *Radio, cands []*Radio) {
	if len(cands) == 0 {
		return
	}
	lo, hi := cands[0].idx, cands[0].idx
	for _, rx := range cands {
		lo, hi = min(lo, rx.idx), max(hi, rx.idx)
	}
	if span := int(hi-lo) + 1; 4*span <= 5*len(cands) {
		r.links = linkRow{base: lo, pl: make([]float64, span)}
		for i := range r.links.pl {
			r.links.pl[i] = math.NaN()
		}
	}
}

// linkPathLoss returns the mean path loss from tx to rx, from tx's row
// when it holds a current entry and computed otherwise.
func (m *Medium) linkPathLoss(tx, rx *Radio) float64 {
	if i := tx.links.slot(rx.idx); i >= 0 {
		if pl := tx.links.pl[i]; pl == pl {
			return pl
		}
	}
	return m.pathLoss(tx, rx)
}

// move relocates r, drops its row and marks its entry stale in every row
// that may hold it. Only finish stores entries, only for the sender's
// grid candidates and only while nothing has moved since it collected
// them, so those rows belong to radios whose query covered r's old
// cell: radios near it.
func (m *Medium) move(r *Radio, p phy.Point) {
	m.moves++
	r.links.drop()
	from := r.cell
	m.grid.move(r, p)
	m.grid.eachNear(from, func(a *Radio) {
		if i := a.links.slot(r.idx); i >= 0 {
			a.links.pl[i] = math.NaN()
		}
	})
}
