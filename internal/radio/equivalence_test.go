package radio

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/simkit"
)

// allPairs is the equivalence oracle: the medium as it behaves with no
// spatial grid and no link tables. Every frame visits every other radio
// in ID order and recomputes each link budget from live positions, and
// BusyAt evaluates every active frame without the distance prefilter.
// Receivers beyond the sender's candidate radius are not delivery
// attempts (the grid never yields them); the oracle evaluates them
// anyway and counts in escaped any that would clear the hard cutoff,
// which would mean the radius is too small to be outcome-neutral.
//
// It shares only the channel's definitions with Medium: the seeds, the
// shadowing draw and the candidate radius, taken from a Medium with no
// radio attached.
type allPairs struct {
	sim     *simkit.Sim
	def     *Medium
	radios  []*refRadio // sorted by ID
	byID    map[ID]*refRadio
	active  []*refTx
	seq     uint64
	stats   Stats
	beyond  int // receivers skipped as beyond the candidate radius
	escaped int // of those, receivers that would have cleared the cutoff
}

type refRadio struct {
	id         ID
	pos        phy.Point
	params     phy.Params
	limiter    *phy.DutyCycleLimiter
	handler    Handler
	down       bool
	multiSF    bool
	txUntil    simkit.Time
	candidateM float64
	c          Counters
}

type refTx struct {
	seq         uint64
	from        *refRadio
	params      phy.Params
	frame       Frame
	start, end  simkit.Time
	interferers []*refTx
}

func newAllPairs(sim *simkit.Sim, cfg Config) *allPairs {
	return &allPairs{sim: sim, def: NewMedium(sim, cfg), byID: map[ID]*refRadio{}}
}

func (a *allPairs) attach(s radioSpec, h Handler) error {
	r := &refRadio{id: s.id, pos: s.pos, params: s.params, limiter: phy.NewDutyCycleLimiter(s.region),
		handler: h, multiSF: s.multiSF, candidateM: a.def.candidateRangeM(s.params)}
	a.byID[s.id] = r
	at := len(a.radios)
	for at > 0 && a.radios[at-1].id > s.id {
		at--
	}
	a.radios = append(a.radios, nil)
	copy(a.radios[at+1:], a.radios[at:])
	a.radios[at] = r
	return nil
}

func (a *allPairs) meanRSSI(tx, rx *refRadio, p phy.Params) float64 {
	ch := &a.def.cfg.Channel
	pl := ch.PathLossDB(tx.pos.Distance(rx.pos)) + a.def.shadowOffset(tx.id, rx.id)
	return p.TxPowerDBm + ch.AntennaGainDBi - pl
}

func (a *allPairs) transmit(id ID, bytes int) error {
	r, now := a.byID[id], a.sim.Now()
	if r.down {
		return ErrRadioDown
	}
	if r.txUntil > now {
		return ErrRadioBusy
	}
	if !r.limiter.CanTransmit(now) {
		r.limiter.RecordBlocked()
		a.stats.DutyCycleBlocked++
		return ErrDutyCycle
	}
	airtime := phy.Airtime(r.params, bytes)
	if dwell := r.limiter.Region().MaxDwell; dwell > 0 && airtime > dwell {
		a.stats.DwellBlocked++
		return ErrDwellExceeded
	}
	r.limiter.RecordTransmission(now, airtime)
	t := &refTx{seq: a.seq, from: r, params: r.params, frame: Frame{Bytes: bytes}, start: now, end: now.Add(airtime)}
	a.seq++
	for _, u := range a.active {
		if u.end > now {
			u.interferers = append(u.interferers, t)
			t.interferers = append(t.interferers, u)
		}
	}
	a.active = append(a.active, t)
	a.stats.TxFrames++
	a.stats.TxAirtime += airtime
	r.txUntil = t.end
	r.c.Tx++
	r.c.TxAirtime += airtime
	a.sim.At(t.end, func() { a.finish(t) })
	return nil
}

func (a *allPairs) finish(t *refTx) {
	cfg := &a.def.cfg
	noise := cfg.Channel.NoiseFloorDBm(t.params.BW)
	floor := phy.SNRFloorDB(t.params.SF)
	for _, rx := range a.radios {
		if rx == t.from {
			continue
		}
		dx, dy := rx.pos.X-t.from.pos.X, rx.pos.Y-t.from.pos.Y
		if dx*dx+dy*dy > t.from.candidateM*t.from.candidateM {
			a.beyond++
			if !rx.down && rx.handler != nil && (rx.multiSF || phy.CanDecode(rx.params, t.params)) &&
				a.meanRSSI(t.from, rx, t.params)-noise-floor >= -cfg.CutoffMarginDB {
				a.escaped++
			}
			continue
		}
		a.stats.DeliveryAttempts++
		a.deliver(t, rx, noise, floor)
	}
	for i, u := range a.active {
		if u == t {
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
}

func (a *allPairs) deliver(t *refTx, rx *refRadio, noise, floor float64) {
	cfg := &a.def.cfg
	if rx.down || rx.handler == nil || !rx.multiSF && !phy.CanDecode(rx.params, t.params) {
		return
	}
	mean := a.meanRSSI(t.from, rx, t.params)
	if mean-noise-floor < -cfg.CutoffMarginDB {
		a.stats.BelowSensitivity++
		rx.c.MissWeak++
		return
	}
	for _, u := range t.interferers {
		if u.from == rx {
			a.stats.HalfDuplexMiss++
			rx.c.MissHalfDuplex++
			return
		}
	}
	rng := hrand{s: a.def.deliverySeed ^ (t.seq << 16) ^ uint64(rx.id)}
	rssi := mean
	if cfg.FadingSigmaDB > 0 {
		rssi += rng.NormFloat64() * cfg.FadingSigmaDB
	}
	snr := rssi - noise
	margin := snr - floor
	weak := margin <= 0
	if !cfg.DeterministicDelivery {
		weak = rng.Float64() >= phy.DeliveryProbability(margin)
	}
	if weak {
		a.stats.BelowSensitivity++
		rx.c.MissWeak++
		return
	}
	strongest := math.Inf(-1)
	for _, u := range t.interferers {
		if u.from == rx || phy.Orthogonal(u.params, t.params) {
			continue
		}
		if ir := a.meanRSSI(u.from, rx, u.params); ir > strongest {
			strongest = ir
		}
	}
	if !math.IsInf(strongest, -1) {
		if !cfg.CaptureEnabled {
			a.stats.Collided++
			rx.c.MissCollision++
			return
		}
		cir := rssi - strongest
		captured := cir >= cfg.CaptureDB
		if !cfg.DeterministicDelivery {
			captured = rng.Float64() < phy.DeliveryProbability(cir-cfg.CaptureDB)
		}
		if !captured {
			a.stats.Collided++
			rx.c.MissCollision++
			return
		}
	}
	a.stats.Delivered++
	rx.c.Rx++
	rx.handler(t.frame, RxInfo{At: a.sim.Now(), From: t.from.id, RSSIdBm: rssi, SNRdB: snr, Airtime: t.end.Sub(t.start)})
}

func (a *allPairs) busyAt(id ID) bool {
	r, now := a.byID[id], a.sim.Now()
	if r.txUntil > now {
		return true
	}
	threshold := a.def.cfg.Channel.NoiseFloorDBm(r.params.BW) + a.def.cfg.DetectionMarginDB
	for _, t := range a.active {
		if t.from != r && t.end > now && !phy.Orthogonal(t.params, r.params) &&
			a.meanRSSI(t.from, r, t.params) >= threshold {
			return true
		}
	}
	return false
}

func (a *allPairs) setPosition(id ID, p phy.Point) { a.byID[id].pos = p }
func (a *allPairs) setDown(id ID, down bool)       { a.byID[id].down = down }
func (a *allPairs) result() Stats                  { return a.stats }
func (a *allPairs) counters(id ID) Counters        { return a.byID[id].c }

// indexed drives the production Medium through the same surface.
type indexed struct{ m *Medium }

func (x indexed) attach(s radioSpec, h Handler) error {
	r, err := x.m.AttachRadio(s.id, s.pos, s.params, s.region)
	if err != nil {
		return err
	}
	r.SetMultiSF(s.multiSF)
	r.SetHandler(h)
	return nil
}

func (x indexed) transmit(id ID, bytes int) error {
	_, err := x.m.Radio(id).Transmit(Frame{Bytes: bytes})
	return err
}

func (x indexed) busyAt(id ID) bool              { return x.m.BusyAt(x.m.Radio(id)) }
func (x indexed) setPosition(id ID, p phy.Point) { x.m.Radio(id).SetPosition(p) }
func (x indexed) setDown(id ID, down bool)       { x.m.Radio(id).SetDown(down) }
func (x indexed) result() Stats                  { return x.m.Stats() }
func (x indexed) counters(id ID) Counters        { return x.m.Radio(id).Counters() }

type mediumUnderTest interface {
	attach(s radioSpec, h Handler) error
	transmit(id ID, bytes int) error
	busyAt(id ID) bool
	setPosition(id ID, p phy.Point)
	setDown(id ID, down bool)
	result() Stats
	counters(id ID) Counters
}

// radioSpec is one radio of a workload; at > 0 attaches it mid-run.
type radioSpec struct {
	id      ID
	pos     phy.Point
	params  phy.Params
	region  phy.Region
	multiSF bool
	at      simkit.Time
}

type txOp struct {
	at    simkit.Time
	radio ID
	bytes int
}

type moveOp struct {
	at    simkit.Time
	radio ID
	to    phy.Point
}

type downOp struct {
	at    simkit.Time
	radio ID
	down  bool
}

// workload is a pre-drawn schedule, replayed identically on both media.
type workload struct {
	seed        int64
	cfg         Config
	radios      []radioSpec
	txs         []txOp
	moves       []moveOp
	downs       []downOp
	sampleEvery simkit.Time
	until       simkit.Time
}

// rxEvent is one observed reception, comparable across runs.
type rxEvent struct {
	From    ID
	At      simkit.Time
	RSSI    float64
	SNR     float64
	Airtime time.Duration
}

// runOutcome captures everything observable about one medium run.
type runOutcome struct {
	stats    Stats
	errs     []string // Transmit results in schedule order ("" = ok)
	rx       map[ID][]rxEvent
	counters map[ID]Counters
	busy     []bool // BusyAt samples, attach order within each sample time
}

// replay runs w on a fresh simulator. Both media arm exactly one event
// per transmitted frame, so the two runs schedule identically.
func replay(t testing.TB, w workload, newMedium func(*simkit.Sim, Config) mediumUnderTest) runOutcome {
	sim := simkit.New(w.seed)
	m := newMedium(sim, w.cfg)
	out := runOutcome{rx: map[ID][]rxEvent{}, counters: map[ID]Counters{}}
	var attached []ID
	attach := func(s radioSpec) {
		id := s.id
		if err := m.attach(s, func(_ Frame, info RxInfo) {
			out.rx[id] = append(out.rx[id], rxEvent{info.From, info.At, info.RSSIdBm, info.SNRdB, info.Airtime})
		}); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, id)
	}
	for _, s := range w.radios {
		if s.at == 0 {
			attach(s)
		} else {
			s := s
			sim.At(s.at, func() { attach(s) })
		}
	}
	for _, op := range w.txs {
		op := op
		sim.At(op.at, func() {
			if err := m.transmit(op.radio, op.bytes); err != nil {
				out.errs = append(out.errs, err.Error())
			} else {
				out.errs = append(out.errs, "")
			}
		})
	}
	for _, op := range w.moves {
		op := op
		sim.At(op.at, func() { m.setPosition(op.radio, op.to) })
	}
	for _, op := range w.downs {
		op := op
		sim.At(op.at, func() { m.setDown(op.radio, op.down) })
	}
	for at := w.sampleEvery; at < w.until; at += w.sampleEvery {
		sim.At(at, func() {
			for _, id := range attached {
				out.busy = append(out.busy, m.busyAt(id))
			}
		})
	}
	sim.RunUntil(w.until)
	out.stats = m.result()
	for _, id := range attached {
		out.counters[id] = m.counters(id)
	}
	return out
}

// workloadOpts selects which parts of the model a workload exercises.
type workloadOpts struct {
	nodes         int
	frames        int
	mixedSF       bool // some radios at SF8: orthogonal and undecodable
	mixedBW       bool // some radios at BW250, same SF: they collide but cannot decode
	noFading      bool
	noCapture     bool
	deterministic bool
	gateway       bool // one multi-SF gateway
	downs         bool // SetDown toggled mid-run
	lateAttach    bool // radios attached after tables exist, one forcing a grid rebuild
	moves         bool // random jumps, small steps and moves during a frame's airtime
	regulated     bool // some radios under EU868 duty cycle
	scattered     bool // square area, IDs in random order: no radio keeps a link table
}

// genWorkload draws a random workload at a density where each radio's
// candidate radius (~19 km for SF7 here) covers part of the area, so the
// grid skips receivers. Radios sit on a 2 km-per-radio by 8 km strip
// with IDs in x order, so a radio's candidates have nearly contiguous
// indices and it keeps a link table; scattered radios do not.
func genWorkload(seed int64, o workloadOpts) workload {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Channel.ShadowingSigmaDB = 3 // keeps the candidate radius well under the area
	cfg.FadingSigmaDB = 2
	if o.noFading {
		cfg.FadingSigmaDB = 0
	}
	cfg.CaptureEnabled = !o.noCapture
	cfg.DeterministicDelivery = o.deterministic
	widthM, heightM := 2000*float64(o.nodes), 8000.0
	if o.scattered {
		widthM = 7746 * math.Sqrt(float64(o.nodes)) // 60 nodes in a 60 km square
		heightM = widthM
	}
	until := 40 * time.Second
	slot := func(n int, d time.Duration) simkit.Time { return simkit.Time(rng.Intn(n)) * simkit.Time(d) }
	point := func() phy.Point { return phy.Point{X: rng.Float64() * widthM, Y: rng.Float64() * heightM} }

	w := workload{seed: seed, cfg: cfg, sampleEvery: simkit.Time(time.Second), until: simkit.Time(until)}
	for i := 0; i < o.nodes; i++ {
		s := radioSpec{id: ID(i + 1), pos: point(), params: phy.DefaultParams(), region: phy.Unregulated()}
		switch {
		case o.mixedSF && i%9 == 0:
			s.params.SF = phy.SF8
		case o.mixedBW && i%5 == 0:
			s.params.BW = phy.BW250
		}
		if o.regulated && i%4 == 0 {
			s.region = phy.EU868()
		}
		w.radios = append(w.radios, s)
	}
	if !o.scattered {
		xs := make([]float64, o.nodes)
		for i := range xs {
			xs[i] = w.radios[i].pos.X
		}
		slices.Sort(xs)
		for i := range xs {
			w.radios[i].pos.X = xs[i]
		}
	}
	if o.gateway {
		w.radios[0].multiSF = true
	}
	if o.lateAttach {
		// One radio joins rows of existing tables; an SF12 radio's longer
		// reach re-buckets the whole grid.
		p := phy.DefaultParams()
		w.radios = append(w.radios, radioSpec{id: ID(o.nodes + 1), pos: point(), params: p,
			region: phy.Unregulated(), at: simkit.Time(until / 4)})
		p.SF = phy.SF12
		w.radios = append(w.radios, radioSpec{id: ID(o.nodes + 2), pos: point(), params: p,
			region: phy.Unregulated(), at: simkit.Time(until / 2)})
	}
	for i := 0; i < o.frames; i++ {
		// Quantized start slots so frames frequently overlap.
		op := txOp{at: slot(150, 200*time.Millisecond), radio: ID(rng.Intn(len(w.radios)) + 1), bytes: 10 + rng.Intn(40)}
		if s := w.radios[op.radio-1]; s.at > op.at {
			op.at += s.at // a late radio transmits only once attached
		}
		w.txs = append(w.txs, op)
		if o.moves && i%5 == 0 {
			// Move the sender or another radio while the frame is on the
			// air (SF7 frames last 40-110 ms).
			who := op.radio
			if i%10 == 0 {
				who = ID(rng.Intn(o.nodes) + 1)
			}
			w.moves = append(w.moves, moveOp{at: op.at + simkit.Time(time.Duration(1+rng.Intn(30))*time.Millisecond),
				radio: who, to: point()})
		}
	}
	if o.moves {
		// A few long jumps: a radio far from its index band leaves the
		// rows rebuilt around it too sparse to keep.
		for i := 0; i < max(o.nodes/10, 1); i++ {
			w.moves = append(w.moves, moveOp{at: slot(300, 100*time.Millisecond), radio: ID(rng.Intn(o.nodes) + 1), to: point()})
		}
		// Walkers take short steps on a tick, like the mobility model. A
		// step usually stays in the radio's cell, so other rows only mark
		// its entry stale, or drop when it crosses their radius. Walkers
		// also transmit on their own cadence, so their rows exist when
		// they move, sometimes mid-frame.
		for i := 0; i < 3; i++ {
			id := ID(rng.Intn(o.nodes) + 1)
			pos := w.radios[id-1].pos
			for at := simkit.Time(0); at < simkit.Time(until); at += simkit.Time(500 * time.Millisecond) {
				pos.X += (rng.Float64() - 0.5) * 2000
				pos.Y += (rng.Float64() - 0.5) * 2000
				w.moves = append(w.moves, moveOp{at: at, radio: id, to: pos})
			}
			for at := simkit.Time(time.Duration(rng.Intn(500)) * time.Millisecond); at < simkit.Time(until); at += simkit.Time(700 * time.Millisecond) {
				w.txs = append(w.txs, txOp{at: at, radio: id, bytes: 10 + rng.Intn(40)})
			}
		}
	}
	if o.downs {
		for i := 0; i < o.nodes/3; i++ {
			id := ID(rng.Intn(o.nodes) + 1)
			at := slot(300, 100*time.Millisecond)
			w.downs = append(w.downs, downOp{at: at, radio: id, down: true},
				downOp{at: at + simkit.Time(time.Duration(rng.Intn(5000))*time.Millisecond), radio: id, down: false})
		}
	}
	return w
}

// checkMatchesAllPairs replays w on the production medium and on the
// oracle and demands identical observable behaviour.
func checkMatchesAllPairs(t testing.TB, w workload) (got runOutcome, oracle *allPairs, rows int) {
	var m *Medium
	got = replay(t, w, func(sim *simkit.Sim, cfg Config) mediumUnderTest {
		m = NewMedium(sim, cfg)
		return indexed{m}
	})
	for _, r := range m.all {
		if r.links.pl != nil {
			rows++
		}
	}
	want := replay(t, w, func(sim *simkit.Sim, cfg Config) mediumUnderTest {
		oracle = newAllPairs(sim, cfg)
		return oracle
	})
	if oracle.escaped != 0 {
		t.Fatalf("%d receivers beyond the candidate radius would have cleared the cutoff", oracle.escaped)
	}
	if got.stats != want.stats {
		t.Fatalf("stats diverge:\ntables   %+v\nallPairs %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.errs, want.errs) {
		t.Fatalf("Transmit results diverge:\ntables   %q\nallPairs %q", got.errs, want.errs)
	}
	if !reflect.DeepEqual(got.busy, want.busy) {
		t.Fatal("BusyAt carrier-sense samples diverge")
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Fatalf("per-radio counters diverge:\ntables   %+v\nallPairs %+v", got.counters, want.counters)
	}
	if !reflect.DeepEqual(got.rx, want.rx) {
		for id := range want.rx {
			if !reflect.DeepEqual(got.rx[id], want.rx[id]) {
				t.Fatalf("radio %v reception log diverges:\ntables   %v\nallPairs %v", id, got.rx[id], want.rx[id])
			}
		}
		t.Fatal("reception logs diverge")
	}
	return got, oracle, rows
}

// TestLinkTablesMatchAllPairs is the property test behind the grid and
// the link tables: on random topologies with shadowing, overlapping
// frames, moves (including during a frame's airtime), late attaches,
// SetDown toggles and every delivery-model switch, the medium must
// produce exactly the oracle's stats (every field, DeliveryAttempts
// included), per-radio counters, reception logs, Transmit errors and
// carrier-sense verdicts.
func TestLinkTablesMatchAllPairs(t *testing.T) {
	all := workloadOpts{downs: true, lateAttach: true, moves: true, regulated: true}
	cases := []struct {
		name string
		seed int64
		o    workloadOpts
	}{
		{"static", 1, workloadOpts{}},
		{"mixedSF", 42, workloadOpts{mixedSF: true}},
		{"mixedBW", 5, workloadOpts{mixedBW: true}},
		{"noFading", 11, workloadOpts{noFading: true}},
		{"noCapture", 13, workloadOpts{noCapture: true}},
		{"deterministic", 17, workloadOpts{deterministic: true, noFading: true}},
		{"gateway", 19, workloadOpts{gateway: true, mixedSF: true}},
		{"downs", 23, workloadOpts{downs: true}},
		{"lateAttach", 29, workloadOpts{lateAttach: true}},
		{"moves", 7, workloadOpts{moves: true}},
		{"everything", 31, all},
		{"everythingNoFadingNoCapture", 37, workloadOpts{downs: true, lateAttach: true, moves: true,
			regulated: true, mixedSF: true, mixedBW: true, gateway: true, noFading: true, noCapture: true}},
		{"scattered", 41, workloadOpts{scattered: true, moves: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.o.nodes, tc.o.frames = 60, 300
			got, oracle, rows := checkMatchesAllPairs(t, genWorkload(tc.seed, tc.o))
			// The workload must exercise the radius, the link tables (or,
			// scattered, their absence) and the model: some receivers
			// skipped, some delivered, some lost to collisions.
			if oracle.beyond == 0 || got.stats.Delivered == 0 || got.stats.Collided == 0 {
				t.Fatalf("workload too tame: %d skipped, stats %+v", oracle.beyond, got.stats)
			}
			if tc.o.scattered != (rows == 0) {
				t.Fatalf("%d radios hold link tables (scattered %v)", rows, tc.o.scattered)
			}
		})
	}
}

// FuzzMediumMatchesAllPairs replays random schedules, with the model
// switches drawn from flags, on the medium and on the all-pairs oracle.
func FuzzMediumMatchesAllPairs(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(12))
	f.Add(int64(2), uint16(0xffff), uint8(30))
	f.Add(int64(3), uint16(0x0555), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, flags uint16, nodes uint8) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		o := workloadOpts{
			nodes: 2 + int(nodes%40), frames: 120,
			mixedSF: bit(0), mixedBW: bit(1), noFading: bit(2), noCapture: bit(3),
			deterministic: bit(4), gateway: bit(5), downs: bit(6), lateAttach: bit(7),
			moves: bit(8), regulated: bit(9), scattered: bit(10),
		}
		checkMatchesAllPairs(t, genWorkload(seed, o))
	})
}

// TestGridReindexOnMove pins SetPosition reindexing directly: a receiver
// that starts beyond the cutoff radius hears nothing, moves into range,
// and then receives — without the index ever consulting a stale cell.
func TestGridReindexOnMove(t *testing.T) {
	sim := simkit.New(1)
	cfg := quietConfig()
	far := cfg.Channel.MaxRangeM(phy.DefaultParams()) * 10
	m, a, b := newPair(t, sim, cfg, far)
	received := 0
	b.SetHandler(func(Frame, RxInfo) { received++ })
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if received != 0 || m.Stats().DeliveryAttempts != 0 {
		t.Fatalf("out-of-range receiver reached: received=%d stats=%+v", received, m.Stats())
	}
	b.SetPosition(phy.Point{X: 200})
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if received != 1 {
		t.Fatalf("moved-in receiver received %d frames, want 1", received)
	}
	// And back out again: the reindex must also shrink the neighbourhood.
	b.SetPosition(phy.Point{X: far})
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if received != 1 || m.Stats().DeliveryAttempts != 1 {
		t.Fatalf("moved-out receiver still indexed: received=%d stats=%+v", received, m.Stats())
	}
}

// TestGridReductionAt10k pins the scale acceptance criterion at the
// medium layer: on a 10k-radio random-geometric topology at the scale
// experiments' density, the index schedules at least 10x fewer delivery
// decisions than the all-pairs baseline would.
func TestGridReductionAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-radio topology")
	}
	sim := simkit.New(3)
	cfg := DefaultConfig()
	cfg.Channel.ShadowingSigmaDB = 0
	cfg.DeterministicDelivery = true
	m := NewMedium(sim, cfg)
	const n = 10_000
	areaM := 3000 * 31.6228 // matches experiments.areaForDensity(10k)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		r, err := m.AttachRadio(ID(i+1), phy.Point{X: rng.Float64() * areaM, Y: rng.Float64() * areaM},
			phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		r.SetHandler(func(Frame, RxInfo) {})
	}
	for i := 0; i < 100; i++ {
		id := ID(rng.Intn(n) + 1)
		at := simkit.Time(i) * simkit.Time(time.Second)
		sim.At(at, func() { m.Radio(id).Transmit(Frame{Bytes: 20}) }) //nolint:errcheck
	}
	sim.Run()
	st := m.Stats()
	if st.TxFrames == 0 {
		t.Fatal("no frames sent")
	}
	allPairs := st.TxFrames * (n - 1)
	if st.DeliveryAttempts*10 > allPairs {
		t.Fatalf("reduction below 10x: %d delivery attempts vs %d all-pairs (%.1fx)",
			st.DeliveryAttempts, allPairs, float64(allPairs)/float64(st.DeliveryAttempts))
	}
	if st.Delivered == 0 {
		t.Fatal("nothing delivered — topology disconnected from the candidate radius?")
	}
}
