// Package radio simulates the shared LoRa broadcast medium: every
// transmission propagates to the radios that could plausibly hear it,
// and reception is decided per receiver from the link budget,
// half-duplex state, co-channel interference and the capture effect.
//
// Shadowing is a static per-pair offset (slow fading, part of the
// topology) derived from a hash of the medium seed and the unordered
// pair; an optional per-packet fading term models fast channel
// variation, derived per (transmission, receiver). Because all channel
// randomness is hash-derived rather than drawn from the shared sim RNG,
// outcomes are independent of query and scheduling order — which is
// what lets the spatial index skip hopeless receivers without changing
// what any reachable receiver observes.
//
// A uniform grid indexes radio positions so delivery decisions are
// evaluated only for receivers within the sender's worst-case
// demodulation range (path loss inverted at the configured cutoff
// margin plus 3σ shadowing headroom). Receivers beyond that radius
// would fail the same hard cutoff the in-range path applies, so the
// indexed medium is outcome-identical to an all-pairs scan (the test
// suite keeps one as its oracle) while doing O(in-range neighbours)
// work per frame instead of O(N).
//
// Each radio keeps a link table: the static mean path loss (log-distance
// loss plus shadowing) to each of its grid candidates, a float64 per
// receiver index, built from the grid the first time it transmits.
// Delivery, the interferer loop and BusyAt read path loss from the
// tables instead of recomputing a logarithm and a shadowing draw per
// pair per frame. A table is kept only where its candidates' indices
// are nearly contiguous, at most 10 bytes per candidate: a 500-radio
// mesh in which every radio hears every other holds 500 4 KB tables,
// 2 MB, while in a mesh much larger than a radio's reach indices are
// scattered and path loss is computed per use as before. A move drops
// the mover's table and marks its entry stale in nearby radios' tables.
package radio

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/simkit"
)

// ID is a radio (node) address. LoRaMesher uses 16-bit addresses; we keep
// the same width.
type ID uint16

// Broadcast is the all-nodes destination address.
const Broadcast ID = 0xFFFF

func (id ID) String() string { return fmt.Sprintf("N%04X", uint16(id)) }

// Errors returned by Transmit.
var (
	ErrRadioBusy     = errors.New("radio: transmitter busy")
	ErrDutyCycle     = errors.New("radio: duty cycle exhausted")
	ErrRadioDown     = errors.New("radio: radio is down")
	ErrUnregistered  = errors.New("radio: radio not registered on a medium")
	ErrDwellExceeded = errors.New("radio: frame airtime exceeds the regional dwell limit")
)

// Frame is what the MAC layer hands to the radio: an opaque payload and
// the number of bytes it would occupy on the air. Payload is carried
// by reference (no serialisation inside the simulator); Bytes drives the
// airtime model.
type Frame struct {
	Payload any
	Bytes   int
}

// RxInfo describes one successful reception.
type RxInfo struct {
	At      simkit.Time // end of reception
	From    ID
	RSSIdBm float64
	SNRdB   float64
	Airtime time.Duration
}

// Handler consumes frames delivered to a radio.
type Handler func(frame Frame, info RxInfo)

// EnergySink receives the energy cost of radio activity. The interface
// is declared here (not in internal/energy) so the radio layer stays
// independent of the battery model: anything that can absorb joules —
// in practice *energy.Account — can be attached to a Radio.
//
// ChargeTx is debited for every frame put on the air (the PA runs for
// the whole airtime whether or not anyone hears it). ChargeRx is
// debited only for successful receptions: the model charges the
// demodulation window we can attribute to a frame, not the idle
// listen floor, which the account's own idle draw covers.
type EnergySink interface {
	ChargeTx(airtime time.Duration, txPowerDBm float64)
	ChargeRx(airtime time.Duration)
}

// Stats aggregates medium-wide outcomes.
type Stats struct {
	TxFrames  uint64
	TxAirtime time.Duration
	// DeliveryAttempts counts reception decisions evaluated: candidate
	// receivers per frame. With the spatial index this is the in-range
	// neighbourhood, not N-1 — the scale experiments gate on this.
	DeliveryAttempts uint64
	Delivered        uint64
	BelowSensitivity uint64 // receptions lost to insufficient SNR or range
	Collided         uint64 // receptions lost to co-channel interference
	HalfDuplexMiss   uint64 // receptions lost because the receiver was transmitting
	DutyCycleBlocked uint64
	DwellBlocked     uint64 // transmissions refused by the regional dwell limit
}

// DefaultCutoffMarginDB is the hard delivery cutoff used when the
// config leaves CutoffMarginDB unset: mean links more than 12 dB below
// the demodulation floor are rejected outright (the logistic waterfall
// puts their success odds below 1e-5 anyway).
const DefaultCutoffMarginDB = 12

// Config tunes the medium's propagation and interference model.
type Config struct {
	Channel phy.ChannelModel
	// FadingSigmaDB is per-packet fast fading; zero disables it.
	FadingSigmaDB float64
	// CaptureDB is the co-channel power advantage needed to capture the
	// receiver (typically 6 dB for same-SF LoRa).
	CaptureDB float64
	// CaptureEnabled selects whether the stronger of two colliding frames
	// can survive. Disabled, any co-channel overlap destroys the frame.
	CaptureEnabled bool
	// DetectionMarginDB sets the carrier-sense threshold relative to the
	// noise floor for BusyAt.
	DetectionMarginDB float64
	// DeterministicDelivery replaces the logistic success waterfall with
	// a hard threshold (margin > 0 succeeds). Useful for protocol tests
	// and step-response experiments.
	DeterministicDelivery bool
	// CutoffMarginDB bounds the logistic waterfall's tail: a reception
	// whose mean (pre-fading) margin sits more than this far below the
	// demodulation floor is rejected deterministically. The cutoff is
	// what gives every transmission a finite candidate radius for the
	// spatial index. Zero or negative selects DefaultCutoffMarginDB.
	CutoffMarginDB float64
}

// DefaultConfig returns the standard campus channel with 6 dB capture.
func DefaultConfig() Config {
	return Config{
		Channel:           phy.DefaultChannel(),
		FadingSigmaDB:     0,
		CaptureDB:         6,
		CaptureEnabled:    true,
		DetectionMarginDB: 6,
		CutoffMarginDB:    DefaultCutoffMarginDB,
	}
}

// Medium is the shared channel all radios are attached to.
type Medium struct {
	sim    *simkit.Sim
	cfg    Config
	radios map[ID]*Radio
	// order lists radios sorted by ID, for Radios.
	order []*Radio
	// all lists radios in attach order; link tables key receivers by
	// their index here (Radio.idx).
	all []*Radio
	// grid indexes radio positions; moves counts SetPosition calls.
	grid  grid
	moves uint64
	// minNoiseFloorDBm tracks the most sensitive noise floor among
	// attached radios; it sizes per-transmission detection ranges for
	// the BusyAt prefilter.
	minNoiseFloorDBm float64
	// shadowSeed and deliverySeed are independent hash streams derived
	// from the sim seed: per-pair shadowing and per-(transmission,
	// receiver) fading/success draws.
	shadowSeed   uint64
	deliverySeed uint64
	txSeq        uint64
	active       []*transmission
	pool         []*transmission
	stats        Stats
}

// transmission is pooled: acquired on transmit, recycled once it has
// left the active list and no other overlapping frame's interferer list
// still references it (refs tracks those references). Its timer, bound
// to finish once, is re-armed for every frame the object carries.
type transmission struct {
	seq            uint64
	from           *Radio
	params         phy.Params
	frame          Frame
	start, end     simkit.Time
	detectRangeSqM float64
	interferers    []*transmission
	candidates     []*Radio
	timer          *simkit.Timer
	activeIdx      int
	refs           int
	done           bool
}

// maxPool caps the recycle pool; beyond it, finished transmissions are
// left for the collector.
const maxPool = 1024

// NewMedium creates a medium on the given simulator.
func NewMedium(sim *simkit.Sim, cfg Config) *Medium {
	if cfg.CutoffMarginDB <= 0 {
		cfg.CutoffMarginDB = DefaultCutoffMarginDB
	}
	seed := mix64(uint64(sim.Seed()) + 0x9e3779b97f4a7c15)
	m := &Medium{
		sim:              sim,
		cfg:              cfg,
		radios:           make(map[ID]*Radio),
		minNoiseFloorDBm: math.Inf(1),
		shadowSeed:       mix64(seed ^ 0x736861646f77),   // "shadow"
		deliverySeed:     mix64(seed ^ 0x64656c69766572), // "deliver"
	}
	m.grid.cells = make(map[cellKey][]*Radio)
	return m
}

// Sim returns the simulator driving the medium.
func (m *Medium) Sim() *simkit.Sim { return m.sim }

// Stats returns a snapshot of medium-wide counters.
func (m *Medium) Stats() Stats { return m.stats }

// candidateRangeM returns the delivery candidate radius for frames sent
// with params p: the distance at which the mean link sits CutoffMarginDB
// plus 3σ shadowing below the demodulation floor. Past it, even a pair
// with the most favourable (clamped) shadowing draw fails the hard
// cutoff, so skipping the receiver changes nothing.
func (m *Medium) candidateRangeM(p phy.Params) float64 {
	margin := -(m.cfg.CutoffMarginDB + shadowClampSigma*m.cfg.Channel.ShadowingSigmaDB)
	return m.cfg.Channel.RangeAtMarginDB(p, margin) * rangeSlack
}

// AttachRadio registers a new radio at pos. IDs must be unique; Broadcast
// is reserved.
func (m *Medium) AttachRadio(id ID, pos phy.Point, params phy.Params, region phy.Region) (*Radio, error) {
	if id == Broadcast {
		return nil, fmt.Errorf("radio: id %v is reserved for broadcast", id)
	}
	if _, dup := m.radios[id]; dup {
		return nil, fmt.Errorf("radio: duplicate id %v", id)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	r := &Radio{
		id:         id,
		idx:        uint16(len(m.all)),
		pos:        pos,
		params:     params,
		medium:     m,
		limiter:    phy.NewDutyCycleLimiter(region),
		candidateM: m.candidateRangeM(params),
	}
	m.radios[id] = r
	m.all = append(m.all, r)
	if nf := m.cfg.Channel.NoiseFloorDBm(params.BW); nf < m.minNoiseFloorDBm {
		m.minNoiseFloorDBm = nf
	}
	// Ascending-ID attachment (the common case: scenario builders number
	// nodes 1..N) appends in O(1); out-of-order IDs take the sorted
	// insert.
	if n := len(m.order); n == 0 || m.order[n-1].id < id {
		m.order = append(m.order, r)
	} else {
		at := sort.Search(n, func(i int) bool { return m.order[i].id > id })
		m.order = append(m.order, nil)
		copy(m.order[at+1:], m.order[at:])
		m.order[at] = r
	}
	// Cells are sized to the largest candidate radius so a query never
	// spans more than the 3x3 block around the sender; a new radio with
	// longer reach (larger SF, more power) forces a re-bucketing of
	// everything attached so far.
	if r.candidateM > m.grid.cellM {
		m.grid.rebuild(r.candidateM, m.order)
	} else {
		m.grid.insert(r)
	}
	return r, nil
}

// Radio returns the radio with the given id, or nil.
func (m *Medium) Radio(id ID) *Radio { return m.radios[id] }

// Radios returns all registered radios sorted by ID.
func (m *Medium) Radios() []*Radio {
	out := make([]*Radio, len(m.order))
	copy(out, m.order)
	return out
}

// shadowOffset returns the static shadowing term for the unordered
// pair, derived from a hash of the medium seed and the pair — stable,
// symmetric and independent of query order. The draw is clamped to
// ±3σ so the spatial index's candidate radius (sized with the same
// headroom) provably covers every pair the cutoff could accept.
func (m *Medium) shadowOffset(a, b ID) float64 {
	sigma := m.cfg.Channel.ShadowingSigmaDB
	if sigma == 0 {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	rng := hrand{s: m.shadowSeed ^ (uint64(a) << 16) ^ uint64(b)}
	z := rng.NormFloat64()
	if z > shadowClampSigma {
		z = shadowClampSigma
	} else if z < -shadowClampSigma {
		z = -shadowClampSigma
	}
	return z * sigma
}

// meanRSSI returns the static (no fast fading) received power from tx at
// rx for the given params.
func (m *Medium) meanRSSI(tx, rx *Radio, p phy.Params) float64 {
	return p.TxPowerDBm + m.cfg.Channel.AntennaGainDBi - m.linkPathLoss(tx, rx)
}

// MeanLink returns the deterministic link from a to b using a's params —
// the quantity topology builders reason about. The static per-pair
// shadowing offset is included, so MeanLink is symmetric when both ends
// use the same params.
func (m *Medium) MeanLink(a, b ID) (phy.Link, error) {
	ra, rb := m.radios[a], m.radios[b]
	if ra == nil || rb == nil {
		return phy.Link{}, fmt.Errorf("radio: unknown pair %v-%v", a, b)
	}
	rssi := m.meanRSSI(ra, rb, ra.params)
	snr := rssi - m.cfg.Channel.NoiseFloorDBm(ra.params.BW)
	return phy.Link{
		RSSIdBm:  rssi,
		SNRdB:    snr,
		MarginDB: snr - phy.SNRFloorDB(ra.params.SF),
	}, nil
}

// BusyAt reports whether r would sense the channel busy right now: some
// other radio's ongoing transmission is detectable above the noise floor
// plus the detection margin, or r itself is transmitting. Transmissions
// whose precomputed detection range cannot reach r are skipped before
// the link-budget evaluation.
func (m *Medium) BusyAt(r *Radio) bool {
	now := m.sim.Now()
	if r.txUntil > now {
		return true
	}
	threshold := m.cfg.Channel.NoiseFloorDBm(r.params.BW) + m.cfg.DetectionMarginDB
	for _, t := range m.active {
		if t.from == r || t.end <= now {
			continue
		}
		if phy.Orthogonal(t.params, r.params) {
			continue
		}
		dx := r.pos.X - t.from.pos.X
		dy := r.pos.Y - t.from.pos.Y
		if dx*dx+dy*dy > t.detectRangeSqM {
			continue
		}
		if m.meanRSSI(t.from, r, t.params) >= threshold {
			return true
		}
	}
	return false
}

// acquire pops a recycled transmission or allocates a fresh one.
func (m *Medium) acquire() *transmission {
	if n := len(m.pool); n > 0 {
		t := m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		return t
	}
	t := &transmission{activeIdx: -1}
	t.timer = m.sim.NewTimer(func() { m.finish(t) })
	return t
}

// release resets a finished, unreferenced transmission for reuse. The
// interferer and candidate slices keep their capacity — that is the
// scratch reuse that makes the steady-state hot path allocation-free.
func (m *Medium) release(t *transmission) {
	t.from = nil
	t.frame = Frame{}
	t.interferers = t.interferers[:0]
	t.candidates = t.candidates[:0]
	t.refs = 0
	t.activeIdx = -1
	t.done = false
	if len(m.pool) < maxPool {
		m.pool = append(m.pool, t)
	}
}

// transmit is called by Radio.Transmit after local checks pass.
func (m *Medium) transmit(r *Radio, frame Frame) (time.Duration, error) {
	now := m.sim.Now()
	airtime := phy.Airtime(r.params, frame.Bytes)
	t := m.acquire()
	t.seq = m.txSeq
	m.txSeq++
	t.from = r
	t.params = r.params
	t.frame = frame
	t.start = now
	t.end = now.Add(airtime)
	// Precompute how far this frame remains detectable by carrier sense
	// at the most sensitive attached bandwidth, with the same 3σ
	// shadowing headroom as delivery: BusyAt's distance prefilter.
	ch := &m.cfg.Channel
	budget := t.params.TxPowerDBm + ch.AntennaGainDBi +
		shadowClampSigma*ch.ShadowingSigmaDB -
		(m.minNoiseFloorDBm + m.cfg.DetectionMarginDB)
	d := ch.DistanceAtPathLossDB(budget) * rangeSlack
	t.detectRangeSqM = d * d
	// Cross-register interference with every active overlapping frame;
	// refs counts the interferer-list references so pooled transmissions
	// are recycled only once nobody can still inspect them.
	for _, u := range m.active {
		if u.end <= now {
			continue
		}
		u.interferers = append(u.interferers, t)
		t.refs++
		t.interferers = append(t.interferers, u)
		u.refs++
	}
	t.activeIdx = len(m.active)
	m.active = append(m.active, t)
	m.stats.TxFrames++
	m.stats.TxAirtime += airtime
	r.txUntil = t.end
	r.txCount++
	r.txAirtime += airtime
	if r.energy != nil {
		r.energy.ChargeTx(airtime, r.params.TxPowerDBm)
	}
	// One event settles the whole frame at end-of-air: collect the
	// candidate receivers (positions as of the delivery decision, so
	// mobility during the airtime is honoured), decide each reception,
	// then retire the transmission.
	t.timer.Reset(airtime)
	return airtime, nil
}

// finish runs at end-of-air: candidate collection, per-receiver delivery
// decisions, then pruning. The checks every candidate needs (state,
// decodability, the hard cutoff) run here against per-frame constants
// and the sender's link table; deliver sees only receivers inside the
// cutoff.
func (m *Medium) finish(t *transmission) {
	t.candidates = m.grid.appendWithin(t.candidates, t.from, t.from.candidateM)
	m.stats.DeliveryAttempts += uint64(len(t.candidates))
	if t.from.links.pl == nil {
		buildLinks(t.from, t.candidates)
	}
	eirp := t.params.TxPowerDBm + m.cfg.Channel.AntennaGainDBi
	noise := m.cfg.Channel.NoiseFloorDBm(t.params.BW)
	floor := phy.SNRFloorDB(t.params.SF)
	// A copy of the row: handlers that move radios may drop or rebuild
	// the sender's row, and drop poisons the arrays this copy still
	// shares, so every entry read here is current or recomputed. Entries
	// are stored only while nothing has moved since the candidates were
	// collected: a receiver a handler moved may have left the sender's
	// neighbourhood, and its next move marks only rows near it stale.
	row, moves := t.from.links, m.moves
	for _, rx := range t.candidates {
		if rx.down || rx.handler == nil {
			continue
		}
		// A receiver tuned to different settings cannot demodulate the
		// frame (multi-SF gateways demodulate every spreading factor
		// concurrently, like an SX1301 concentrator).
		if !rx.multiSF && !phy.CanDecode(rx.params, t.params) {
			continue
		}
		var pl float64
		if i := row.slot(rx.idx); i < 0 {
			pl = m.pathLoss(t.from, rx)
		} else if pl = row.pl[i]; pl != pl {
			pl = m.pathLoss(t.from, rx)
			if m.moves == moves {
				row.pl[i] = pl
			}
		}
		// Hard cutoff on the mean (pre-fading) margin: receivers this
		// far below the floor are out of demodulation range, full stop.
		// The grid never yields receivers beyond the radius where this
		// check could pass, so indexed and all-pairs runs agree exactly.
		meanRSSI := eirp - pl
		if meanRSSI-noise-floor < -m.cfg.CutoffMarginDB {
			m.stats.BelowSensitivity++
			rx.missWeak++
			continue
		}
		m.deliver(t, rx, meanRSSI, noise, floor)
	}
	m.prune(t)
}

// deliver decides whether rx, inside the cutoff, successfully receives
// t. All randomness is drawn from a stream keyed by (medium seed,
// transmission sequence, receiver), so the outcome does not depend on
// evaluation order or on which other receivers were considered.
func (m *Medium) deliver(t *transmission, rx *Radio, meanRSSI, noise, floor float64) {
	// Half-duplex: the receiver was transmitting during t if any of t's
	// interferers (or t-overlapping frames sent later) came from rx.
	for _, u := range t.interferers {
		if u.from == rx {
			m.stats.HalfDuplexMiss++
			rx.missHalfDuplex++
			return
		}
	}

	rng := hrand{s: m.deliverySeed ^ (t.seq << 16) ^ uint64(rx.id)}
	rssi := meanRSSI
	if m.cfg.FadingSigmaDB > 0 {
		rssi += rng.NormFloat64() * m.cfg.FadingSigmaDB
	}
	snr := rssi - noise
	margin := snr - floor

	// Noise-limited success: logistic waterfall around the demod floor
	// (or a hard threshold in deterministic mode).
	weak := margin <= 0
	if !m.cfg.DeterministicDelivery {
		weak = rng.Float64() >= phy.DeliveryProbability(margin)
	}
	if weak {
		m.stats.BelowSensitivity++
		rx.missWeak++
		return
	}

	// Interference-limited success: the frame must beat the strongest
	// co-channel interferer by the capture threshold.
	strongest := math.Inf(-1)
	for _, u := range t.interferers {
		if u.from == rx || phy.Orthogonal(u.params, t.params) {
			continue
		}
		if ir := m.meanRSSI(u.from, rx, u.params); ir > strongest {
			strongest = ir
		}
	}
	if !math.IsInf(strongest, -1) {
		if !m.cfg.CaptureEnabled {
			m.stats.Collided++
			rx.missCollision++
			return
		}
		cir := rssi - strongest
		captured := cir >= m.cfg.CaptureDB
		if !m.cfg.DeterministicDelivery {
			captured = rng.Float64() < phy.DeliveryProbability(cir-m.cfg.CaptureDB)
		}
		if !captured {
			m.stats.Collided++
			rx.missCollision++
			return
		}
	}

	m.stats.Delivered++
	rx.rxCount++
	if rx.energy != nil {
		rx.energy.ChargeRx(t.end.Sub(t.start))
	}
	rx.handler(t.frame, RxInfo{
		At:      m.sim.Now(),
		From:    t.from.id,
		RSSIdBm: rssi,
		SNRdB:   snr,
		Airtime: t.end.Sub(t.start),
	})
}

// prune retires t: swap-remove from the active list by index (O(1)
// instead of the old full-slice rescan), drop its references to the
// frames it overlapped, and recycle whatever became unreferenced.
func (m *Medium) prune(t *transmission) {
	t.done = true
	last := len(m.active) - 1
	if t.activeIdx != last {
		moved := m.active[last]
		m.active[t.activeIdx] = moved
		moved.activeIdx = t.activeIdx
	}
	m.active[last] = nil
	m.active = m.active[:last]
	for _, u := range t.interferers {
		u.refs--
		if u.done && u.refs == 0 {
			m.release(u)
		}
	}
	if t.refs == 0 {
		m.release(t)
	}
}

// Radio is one simulated transceiver attached to a Medium.
type Radio struct {
	id      ID
	pos     phy.Point
	params  phy.Params
	medium  *Medium
	limiter *phy.DutyCycleLimiter
	handler Handler
	energy  EnergySink
	down    bool
	multiSF bool
	txUntil simkit.Time

	// candidateM is the delivery candidate radius for frames this radio
	// sends (a function of its params and the channel); cell and
	// cellIdx locate the radio inside the medium's spatial grid; idx is
	// its position in Medium.all; links is its link table.
	candidateM float64
	cell       cellKey
	cellIdx    int
	idx        uint16
	links      linkRow

	txCount        uint64
	rxCount        uint64
	txAirtime      time.Duration
	missWeak       uint64
	missCollision  uint64
	missHalfDuplex uint64
}

// ID returns the radio's address.
func (r *Radio) ID() ID { return r.id }

// Position returns the radio's location.
func (r *Radio) Position() phy.Point { return r.pos }

// SetPosition moves the radio (mobile deployments), reindexes it in the
// medium's spatial grid, drops its link table and marks its entry stale
// in its neighbours' tables. Propagation always uses positions as of
// the delivery decision; the static per-pair shadowing offset is kept,
// modelling terrain rather than location.
func (r *Radio) SetPosition(p phy.Point) {
	if r.medium == nil {
		r.pos = p
		return
	}
	r.medium.move(r, p)
}

// Params returns the radio's current transmission parameters.
func (r *Radio) Params() phy.Params { return r.params }

// Limiter exposes the duty-cycle limiter for telemetry.
func (r *Radio) Limiter() *phy.DutyCycleLimiter { return r.limiter }

// SetHandler installs the receive callback. Frames arriving while no
// handler is installed are dropped silently.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// SetDown marks the radio failed (true) or restored (false). A down radio
// neither transmits nor receives.
func (r *Radio) SetDown(down bool) { r.down = down }

// SetEnergySink attaches a battery account; nil detaches it. TX cost
// is charged at transmit time, RX cost on each successful delivery.
func (r *Radio) SetEnergySink(s EnergySink) { r.energy = s }

// SetMultiSF makes the radio demodulate every spreading factor and
// bandwidth on its carrier concurrently, like an SX1301-class gateway
// concentrator. Transmissions still use the radio's own params.
func (r *Radio) SetMultiSF(on bool) { r.multiSF = on }

// Down reports whether the radio is failed.
func (r *Radio) Down() bool { return r.down }

// Busy reports whether the transmitter is mid-frame.
func (r *Radio) Busy() bool { return r.txUntil > r.medium.sim.Now() }

// ChannelClear reports whether carrier sense finds the medium idle.
func (r *Radio) ChannelClear() bool { return !r.medium.BusyAt(r) }

// DutyCycleWait returns how long until the regulator permits the next
// transmission.
func (r *Radio) DutyCycleWait() time.Duration {
	return r.limiter.WaitTime(r.medium.sim.Now())
}

// Transmit puts a frame on the air and returns the frame's airtime. It
// fails with ErrUnregistered (radio never attached to a medium),
// ErrRadioDown, ErrRadioBusy (transmitter mid-frame), ErrDutyCycle
// (regulatory duty-cycle budget exhausted) or ErrDwellExceeded (frame
// airtime above the regional dwell limit).
func (r *Radio) Transmit(frame Frame) (time.Duration, error) {
	if r.medium == nil {
		return 0, ErrUnregistered
	}
	now := r.medium.sim.Now()
	if r.down {
		return 0, ErrRadioDown
	}
	if r.txUntil > now {
		return 0, ErrRadioBusy
	}
	if !r.limiter.CanTransmit(now) {
		r.limiter.RecordBlocked()
		r.medium.stats.DutyCycleBlocked++
		return 0, ErrDutyCycle
	}
	airtime := phy.Airtime(r.params, frame.Bytes)
	if dwell := r.limiter.Region().MaxDwell; dwell > 0 && airtime > dwell {
		r.medium.stats.DwellBlocked++
		return 0, ErrDwellExceeded
	}
	r.limiter.RecordTransmission(now, airtime)
	return r.medium.transmit(r, frame)
}

// Counters is a snapshot of one radio's outcome counters.
type Counters struct {
	Tx             uint64
	Rx             uint64
	TxAirtime      time.Duration
	MissWeak       uint64
	MissCollision  uint64
	MissHalfDuplex uint64
}

// Counters returns the radio's local statistics.
func (r *Radio) Counters() Counters {
	return Counters{
		Tx:             r.txCount,
		Rx:             r.rxCount,
		TxAirtime:      r.txAirtime,
		MissWeak:       r.missWeak,
		MissCollision:  r.missCollision,
		MissHalfDuplex: r.missHalfDuplex,
	}
}
