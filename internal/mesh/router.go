package mesh

import (
	"errors"
	"fmt"
	"time"

	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

// Errors returned by Send.
var (
	ErrNoRoute     = errors.New("mesh: no route to destination")
	ErrQueueFull   = errors.New("mesh: transmit queue full")
	ErrPayloadSize = errors.New("mesh: payload exceeds maximum")
	ErrStopped     = errors.New("mesh: router not running")
)

// DropReason labels why a packet was discarded; the monitoring client
// reports these verbatim.
type DropReason string

// Drop reasons.
const (
	DropNoRoute    DropReason = "no-route"
	DropTTL        DropReason = "ttl-expired"
	DropQueueFull  DropReason = "queue-full"
	DropDuplicate  DropReason = "duplicate"
	DropAckTimeout DropReason = "ack-timeout"
	DropRadioDown  DropReason = "radio-down"
)

// Tap receives protocol events for instrumentation. All fields are
// optional. This is the attachment point of the paper's monitoring
// client: it observes every in- and outgoing LoRa packet without
// perturbing the protocol.
type Tap struct {
	// PacketIn fires for every decoded frame; forUs reports whether the
	// frame was addressed to this node at the link layer (via/broadcast).
	PacketIn func(p Packet, info radio.RxInfo, forUs bool)
	// PacketOut fires after a frame is put on the air.
	PacketOut func(p Packet, airtime time.Duration)
	// PacketDropped fires when the router discards a packet.
	PacketDropped func(p Packet, reason DropReason)
	// RoutesChanged fires when the routing table changes.
	RoutesChanged func(routes []Route)
	// DeliveryFailed fires when a reliable send exhausts its retries.
	DeliveryFailed func(p Packet)
}

// ReceiveFunc consumes application payloads delivered to this node.
type ReceiveFunc func(src radio.ID, payload []byte, info radio.RxInfo)

// Counters tallies router activity, mirroring the counters the paper's
// monitoring client periodically reports.
type Counters struct {
	HelloSent uint64
	DataSent  uint64 // originated data transmissions (incl. retries)
	AckSent   uint64
	Forwarded uint64

	HelloRecv     uint64
	DataRecv      uint64 // data frames addressed to us at link layer
	AckRecv       uint64
	Overheard     uint64 // decoded frames not addressed to us
	Delivered     uint64 // payloads handed to the application
	DupSuppressed uint64

	DropNoRoute    uint64
	DropTTL        uint64
	DropQueueFull  uint64
	DropAckTimeout uint64
	DropRadioDown  uint64

	RetriesSpent   uint64
	SendFailures   uint64 // reliable sends that gave up
	RouteEvicted   uint64
	RouteChanges   uint64
	QueueHighWater int
	// HelloSuperseded counts HELLO rounds that replaced this node's
	// still-queued HELLO instead of queueing another.
	HelloSuperseded uint64
}

type outItem struct {
	pkt Packet
	// origin marks packets this node originated (vs forwarded), which is
	// what arms the end-to-end retry machinery.
	origin bool
}

// isControl reports whether a packet type rides the priority lane:
// routing beacons and acknowledgements must not starve behind bulk
// fragments, or routes flap under sustained transfers.
func isControl(t PacketType) bool {
	switch t {
	case TypeHello, TypeAck, TypeFragReq, TypeFragAck:
		return true
	default:
		return false
	}
}

type pendingAck struct {
	pkt     Packet
	retries int
	timer   *simkit.Event
}

// Router runs the mesh protocol for one node on top of a radio.
type Router struct {
	sim   *simkit.Sim
	rad   *radio.Radio
	cfg   Config
	table *Table

	seq      uint16
	queue    []outItem
	ctrl     int  // queue[:ctrl] is the priority (control) region
	pumpArm  bool // pumpTm is pending
	pumpTm   *simkit.Timer
	dedup    map[dedupKey]simkit.Time
	pending  map[uint16]*pendingAck
	running  bool
	hello    *simkit.Timer
	expireTk *simkit.Ticker
	sweepTk  *simkit.Ticker

	outXfers  map[uint16]*outTransfer
	inXfers   map[xferKey]*inTransfer
	doneXfers map[xferKey]simkit.Time
	frag      FragCounters
	// roles holds the last role advertised by each node, indexed by
	// radio.ID and grown on demand; IDs beyond its end are RoleNode.
	roles []uint8

	tap      Tap
	deliver  ReceiveFunc
	counters Counters

	// batterySrc, when set, supplies the node's state of charge for
	// HELLO advertisement (energy-aware routing reads it on receive).
	batterySrc func() float64
}

type dedupKey struct {
	src radio.ID
	seq uint16
	typ PacketType
}

// NewRouter builds a router for rad using cfg (zero fields defaulted).
// Call Start to begin protocol operation.
func NewRouter(sim *simkit.Sim, rad *radio.Radio, cfg Config) *Router {
	r := &Router{
		sim:       sim,
		rad:       rad,
		cfg:       cfg.withDefaults(),
		table:     NewTable(rad.ID()),
		dedup:     make(map[dedupKey]simkit.Time),
		pending:   make(map[uint16]*pendingAck),
		outXfers:  make(map[uint16]*outTransfer),
		inXfers:   make(map[xferKey]*inTransfer),
		doneXfers: make(map[xferKey]simkit.Time),
	}
	r.hello = sim.NewTimer(r.helloRound)
	r.pumpTm = sim.NewTimer(r.firePump)
	r.table.SetSNRTiebreak(r.cfg.SNRTiebreakDB)
	rad.SetHandler(r.onFrame)
	return r
}

// ID returns the node address.
func (r *Router) ID() radio.ID { return r.rad.ID() }

// Table exposes the routing table (read-mostly; telemetry and tests).
func (r *Router) Table() *Table { return r.table }

// Config returns the effective (defaulted) configuration.
func (r *Router) Config() Config { return r.cfg }

// Counters returns a snapshot of the router's counters.
func (r *Router) Counters() Counters { return r.counters }

// Radio returns the underlying radio.
func (r *Router) Radio() *radio.Radio { return r.rad }

// SetTap installs instrumentation hooks. Pass a zero Tap to clear.
func (r *Router) SetTap(t Tap) { r.tap = t }

// SetBatterySource installs the state-of-charge supplier advertised in
// HELLOs (values in [0,1]). Nil clears it: HELLOs then carry the
// "no battery info" byte and neighbours apply no energy penalty.
func (r *Router) SetBatterySource(f func() float64) { r.batterySrc = f }

// OnReceive installs the application delivery callback.
func (r *Router) OnReceive(f ReceiveFunc) { r.deliver = f }

// QueueLen returns the current transmit-queue depth.
func (r *Router) QueueLen() int { return len(r.queue) }

// Running reports whether the protocol is active.
func (r *Router) Running() bool { return r.running }

// Start begins hello broadcasting, route expiry and queue pumping. The
// first hello goes out after a random fraction of the hello interval so
// co-booted nodes do not collide forever.
func (r *Router) Start() {
	if r.running {
		return
	}
	r.running = true
	first := time.Duration(r.sim.Rand().Float64() * float64(r.cfg.HelloInterval))
	r.hello.Reset(first)
	r.expireTk = r.sim.Every(r.cfg.HelloInterval/2, r.expireRoutes)
	r.sweepTk = r.sim.Every(r.cfg.DedupWindow, r.sweepDedup)
}

// Stop halts all protocol activity and clears volatile state. Queued
// packets are discarded. The routing table survives so a restarted node
// resumes from stale-but-plausible state, like a rebooting device with
// persisted routes would.
func (r *Router) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.hello.Stop()
	if r.expireTk != nil {
		r.expireTk.Stop()
	}
	if r.sweepTk != nil {
		r.sweepTk.Stop()
	}
	for seq, p := range r.pending {
		p.timer.Stop()
		delete(r.pending, seq)
	}
	for id, t := range r.outXfers {
		if t.timer != nil {
			t.timer.Stop()
		}
		delete(r.outXfers, id)
		r.frag.TransfersFailed++
		if t.done != nil {
			t.done(TransferFailed)
		}
	}
	for key, in := range r.inXfers {
		if in.timer != nil {
			in.timer.Stop()
		}
		delete(r.inXfers, key)
	}
	r.queue = nil
	r.ctrl = 0
}

// Send queues an application payload for dst. With reliable set, the
// packet is retransmitted until acknowledged end-to-end or retries are
// exhausted. It returns the assigned sequence number.
func (r *Router) Send(dst radio.ID, payload []byte, reliable bool) (uint16, error) {
	if !r.running {
		return 0, ErrStopped
	}
	if len(payload) > MaxPayload {
		return 0, ErrPayloadSize
	}
	pkt := Packet{
		Type:    TypeData,
		Src:     r.rad.ID(),
		Dst:     dst,
		Seq:     r.nextSeq(),
		TTL:     r.cfg.DefaultTTL,
		WantAck: reliable && dst != radio.Broadcast,
		Payload: payload,
	}
	if dst == radio.Broadcast {
		pkt.Via = radio.Broadcast
	} else {
		route, ok := r.table.Lookup(dst)
		if !ok {
			return 0, ErrNoRoute
		}
		pkt.Via = route.NextHop
	}
	if err := r.enqueue(outItem{pkt: pkt, origin: true}); err != nil {
		return 0, err
	}
	return pkt.Seq, nil
}

func (r *Router) nextSeq() uint16 {
	r.seq++
	return r.seq
}

// --- periodic duties ---

// helloRound broadcasts the routing table. A HELLO of ours still queued
// from an earlier round is superseded in place: it keeps its slot in
// the control lane and its ads array, and takes this round's sequence
// number, table and battery byte, so the queue holds at most one HELLO
// and the one sent carries the table as it stands.
func (r *Router) helloRound() {
	if !r.running {
		return
	}
	queued := r.queuedHello()
	var ads []RouteAd
	if queued >= 0 {
		ads = r.queue[queued].pkt.Routes
	}
	pkt := Packet{
		Type:    TypeHello,
		Src:     r.rad.ID(),
		Dst:     radio.Broadcast,
		Via:     radio.Broadcast,
		Seq:     r.nextSeq(),
		TTL:     1,
		Routes:  r.buildAdsInto(ads),
		SrcRole: r.cfg.Role,
	}
	if r.batterySrc != nil {
		pkt.SrcBattery = EncodeBattery(r.batterySrc())
	}
	if queued >= 0 {
		r.queue[queued].pkt = pkt
		r.counters.HelloSuperseded++
	} else {
		r.enqueue(outItem{pkt: pkt}) //nolint:errcheck // queue-full already tapped
	}
	next := simkit.Jitter(r.sim.Rand(), r.cfg.HelloInterval, r.cfg.HelloJitterFrac)
	r.hello.Reset(next)
}

// queuedHello returns the control-lane index of this node's unsent
// HELLO, or -1. A frame leaves the queue as it goes on the air, so a
// queued HELLO has not been sent.
func (r *Router) queuedHello() int {
	for i := range r.queue[:r.ctrl] {
		if p := &r.queue[i].pkt; p.Type == TypeHello && p.Src == r.rad.ID() {
			return i
		}
	}
	return -1
}

func (r *Router) expireRoutes() {
	evicted := r.table.Expire(r.sim.Now(), r.cfg.RouteTimeout())
	if evicted > 0 {
		r.counters.RouteEvicted += uint64(evicted)
		r.routesChanged()
	}
}

func (r *Router) sweepDedup() {
	cutoff := r.sim.Now()
	for k, seen := range r.dedup {
		if cutoff.Sub(seen) > r.cfg.DedupWindow {
			delete(r.dedup, k)
		}
	}
	for k, seen := range r.doneXfers {
		if cutoff.Sub(seen) > r.cfg.DedupWindow {
			delete(r.doneXfers, k)
		}
	}
}

func (r *Router) routesChanged() {
	r.counters.RouteChanges++
	if r.tap.RoutesChanged != nil {
		r.tap.RoutesChanged(r.table.Snapshot())
	}
}

// --- transmit path ---

func (r *Router) enqueue(it outItem) error {
	control := isControl(it.pkt.Type)
	if len(r.queue) >= r.cfg.QueueCap {
		// A full queue never blocks control traffic: evict the newest
		// bulk packet instead, so routing stays alive under load.
		if control && r.ctrl < len(r.queue) {
			last := len(r.queue) - 1
			victim := r.queue[last]
			r.queue[last] = outItem{} // release the victim's payload and ads
			r.queue = r.queue[:last]
			r.counters.DropQueueFull++
			r.drop(victim.pkt, DropQueueFull)
		} else {
			r.counters.DropQueueFull++
			r.drop(it.pkt, DropQueueFull)
			return ErrQueueFull
		}
	}
	if control {
		// Insert behind earlier control packets, ahead of bulk.
		r.queue = append(r.queue, outItem{})
		copy(r.queue[r.ctrl+1:], r.queue[r.ctrl:])
		r.queue[r.ctrl] = it
		r.ctrl++
	} else {
		r.queue = append(r.queue, it)
	}
	if len(r.queue) > r.counters.QueueHighWater {
		r.counters.QueueHighWater = len(r.queue)
	}
	r.schedulePump(0)
	return nil
}

// popQueue removes and accounts the queue head. The vacated slot is
// zeroed: the backing array outlives the reslice, and a sent HELLO
// left in it would pin its route ads until the array is reallocated.
func (r *Router) popQueue() {
	r.queue[0] = outItem{}
	r.queue = r.queue[1:]
	if r.ctrl > 0 {
		r.ctrl--
	}
}

func (r *Router) schedulePump(d time.Duration) {
	if r.pumpArm {
		return
	}
	r.pumpArm = true
	r.pumpTm.Reset(d)
}

func (r *Router) firePump() {
	r.pumpArm = false
	r.pump()
}

func (r *Router) backoff() time.Duration {
	span := r.cfg.BackoffMax - r.cfg.BackoffMin
	return r.cfg.BackoffMin + time.Duration(r.sim.Rand().Int63n(int64(span)+1))
}

func (r *Router) pump() {
	if !r.running || len(r.queue) == 0 {
		return
	}
	if r.rad.Busy() {
		r.schedulePump(r.backoff())
		return
	}
	if wait := r.rad.DutyCycleWait(); wait > 0 {
		r.schedulePump(wait + r.backoff())
		return
	}
	// CSMA: listen before talk, random backoff when busy.
	if !r.rad.ChannelClear() {
		r.schedulePump(r.backoff())
		return
	}
	it := r.queue[0]
	airtime, err := r.rad.Transmit(radio.Frame{Payload: it.pkt, Bytes: it.pkt.Size()})
	switch {
	case err == nil:
		r.popQueue()
		r.noteSent(it, airtime)
		if len(r.queue) > 0 {
			r.schedulePump(airtime + r.cfg.TxGap)
		}
	case errors.Is(err, radio.ErrRadioDown):
		// Drop the whole queue: the node is dead until restarted.
		for _, q := range r.queue {
			r.counters.DropRadioDown++
			r.drop(q.pkt, DropRadioDown)
		}
		r.queue = nil
		r.ctrl = 0
	default: // busy or duty cycle: retry later
		r.schedulePump(r.backoff())
	}
}

func (r *Router) noteSent(it outItem, airtime time.Duration) {
	// A drained fragment frees window room: feed the next chunk.
	if it.pkt.Type == TypeFrag && it.pkt.Src == r.rad.ID() {
		if t, ok := r.outXfers[it.pkt.TransferID]; ok {
			r.feedTransfer(t)
		}
	}
	switch it.pkt.Type {
	case TypeHello:
		r.counters.HelloSent++
	case TypeAck:
		r.counters.AckSent++
	case TypeData:
		if it.origin {
			r.counters.DataSent++
		} else {
			r.counters.Forwarded++
		}
	case TypeFrag, TypeFragReq, TypeFragAck:
		if it.pkt.Src != r.rad.ID() {
			r.counters.Forwarded++
		}
	}
	if r.tap.PacketOut != nil {
		r.tap.PacketOut(it.pkt, airtime)
	}
	if it.origin && it.pkt.WantAck {
		r.armAckTimer(it.pkt)
	}
}

func (r *Router) armAckTimer(pkt Packet) {
	p, ok := r.pending[pkt.Seq]
	if !ok {
		p = &pendingAck{pkt: pkt}
		r.pending[pkt.Seq] = p
	} else if p.timer != nil {
		p.timer.Stop()
	}
	p.timer = r.sim.After(r.cfg.AckTimeout, func() { r.ackTimeout(pkt.Seq) })
}

func (r *Router) ackTimeout(seq uint16) {
	p, ok := r.pending[seq]
	if !ok || !r.running {
		return
	}
	if p.retries >= r.cfg.MaxRetries {
		delete(r.pending, seq)
		r.counters.SendFailures++
		r.counters.DropAckTimeout++
		r.drop(p.pkt, DropAckTimeout)
		if r.tap.DeliveryFailed != nil {
			r.tap.DeliveryFailed(p.pkt)
		}
		return
	}
	p.retries++
	r.counters.RetriesSpent++
	// Re-resolve the next hop: the topology may have changed since.
	pkt := p.pkt
	if route, ok := r.table.Lookup(pkt.Dst); ok {
		pkt.Via = route.NextHop
		p.pkt = pkt
		if err := r.enqueue(outItem{pkt: pkt, origin: true}); err != nil {
			// Queue full: count as a spent retry and rearm the timer so
			// the remaining attempts still happen.
			r.armAckTimer(pkt)
		}
		return
	}
	// No route at retry time: rearm and hope the table recovers.
	r.armAckTimer(pkt)
}

func (r *Router) drop(pkt Packet, reason DropReason) {
	if r.tap.PacketDropped != nil {
		r.tap.PacketDropped(pkt, reason)
	}
}

// --- receive path ---

func (r *Router) onFrame(f radio.Frame, info radio.RxInfo) {
	if !r.running {
		return
	}
	pkt, ok := f.Payload.(Packet)
	if !ok {
		return // foreign traffic on the same channel
	}
	forUs := pkt.Via == r.rad.ID() || pkt.Via == radio.Broadcast
	if r.tap.PacketIn != nil {
		r.tap.PacketIn(pkt, info, forUs)
	}
	switch pkt.Type {
	case TypeHello:
		r.counters.HelloRecv++
		r.onHello(pkt, info)
	case TypeData:
		if !forUs {
			r.counters.Overheard++
			return
		}
		r.counters.DataRecv++
		r.onData(pkt, info)
	case TypeAck:
		if !forUs {
			r.counters.Overheard++
			return
		}
		r.counters.AckRecv++
		r.onAck(pkt)
	case TypeFrag:
		if !forUs {
			r.counters.Overheard++
			return
		}
		r.counters.DataRecv++
		r.onFrag(pkt, info)
	case TypeFragReq:
		if !forUs {
			r.counters.Overheard++
			return
		}
		r.onFragReq(pkt)
	case TypeFragAck:
		if !forUs {
			r.counters.Overheard++
			return
		}
		r.onFragAck(pkt)
	}
}

func (r *Router) onHello(pkt Packet, info radio.RxInfo) {
	r.learnRoles(pkt)
	now := r.sim.Now()
	// Energy-aware routing turns the neighbour's advertised charge into
	// a hop penalty on every route through it. Penalties compound along
	// a path naturally: each node re-advertises its penalised metric,
	// so a route crossing two tired nodes costs more than one.
	var pen uint8
	if r.cfg.EnergyAware {
		if frac, ok := DecodeBattery(pkt.SrcBattery); ok {
			pen = energyPenalty(frac)
		}
	}
	changed := r.table.Update(pkt.Src, pkt.Src, reachable(AddMetric(1, pen)), info.SNRdB, now)
	walk := cursor{t: r.table}
	for _, ad := range pkt.Routes {
		if ad.Addr == r.rad.ID() {
			continue
		}
		// Split horizon: a route the neighbour reaches through us would
		// loop straight back; adopting it is how count-to-infinity starts.
		if ad.Via == r.rad.ID() {
			continue
		}
		metric := AddMetric(ad.Metric, 1)
		if pen > 0 && metric < MetricInf {
			metric = reachable(AddMetric(metric, pen))
		}
		if walk.update(ad.Addr, pkt.Src, metric, info.SNRdB, now) {
			changed = true
		}
	}
	if changed {
		r.routesChanged()
	}
}

// energyPenalty maps a neighbour's state of charge to extra metric
// hops: healthy nodes cost nothing, tired ones look progressively
// farther away.
func energyPenalty(frac float64) uint8 {
	switch {
	case frac >= 0.5:
		return 0
	case frac >= 0.25:
		return 1
	case frac >= 0.1:
		return 2
	default:
		return 4
	}
}

// reachable clamps a penalised metric just below MetricInf: a
// low-battery neighbour is expensive, never unreachable — if it is the
// only path, traffic still flows.
func reachable(m uint8) uint8 {
	if m >= MetricInf {
		return MetricInf - 1
	}
	return m
}

func (r *Router) isDuplicate(pkt Packet) bool {
	k := dedupKey{src: pkt.Src, seq: pkt.Seq, typ: pkt.Type}
	if _, seen := r.dedup[k]; seen {
		return true
	}
	r.dedup[k] = r.sim.Now()
	return false
}

func (r *Router) onData(pkt Packet, info radio.RxInfo) {
	if r.isDuplicate(pkt) {
		r.counters.DupSuppressed++
		// A retransmission means our ACK may have been lost: answer
		// again without re-delivering.
		if pkt.WantAck && pkt.Dst == r.rad.ID() {
			r.sendAck(pkt)
		}
		r.drop(pkt, DropDuplicate)
		return
	}
	if pkt.Dst == r.rad.ID() || pkt.Dst == radio.Broadcast {
		r.counters.Delivered++
		if r.deliver != nil {
			r.deliver(pkt.Src, pkt.Payload, info)
		}
		if pkt.WantAck && pkt.Dst == r.rad.ID() {
			r.sendAck(pkt)
		}
		return
	}
	// Forward toward the destination.
	if pkt.TTL <= 1 {
		r.counters.DropTTL++
		r.drop(pkt, DropTTL)
		return
	}
	route, ok := r.table.Lookup(pkt.Dst)
	if !ok {
		r.counters.DropNoRoute++
		r.drop(pkt, DropNoRoute)
		return
	}
	fwd := pkt
	fwd.Via = route.NextHop
	fwd.TTL = pkt.TTL - 1
	if err := r.enqueue(outItem{pkt: fwd}); err != nil {
		return // enqueue already accounted the drop
	}
}

func (r *Router) sendAck(data Packet) {
	route, ok := r.table.Lookup(data.Src)
	if !ok {
		return // cannot answer; the sender will retry
	}
	ack := Packet{
		Type:   TypeAck,
		Src:    r.rad.ID(),
		Dst:    data.Src,
		Via:    route.NextHop,
		Seq:    r.nextSeq(),
		TTL:    r.cfg.DefaultTTL,
		AckFor: data.Seq,
	}
	r.enqueue(outItem{pkt: ack}) //nolint:errcheck // best-effort; drop already tapped
}

func (r *Router) onAck(pkt Packet) {
	if r.isDuplicate(pkt) {
		r.counters.DupSuppressed++
		r.drop(pkt, DropDuplicate)
		return
	}
	if pkt.Dst == r.rad.ID() {
		if p, ok := r.pending[pkt.AckFor]; ok {
			p.timer.Stop()
			delete(r.pending, pkt.AckFor)
		}
		return
	}
	// Forward the ACK toward the original sender.
	if pkt.TTL <= 1 {
		r.counters.DropTTL++
		r.drop(pkt, DropTTL)
		return
	}
	route, ok := r.table.Lookup(pkt.Dst)
	if !ok {
		r.counters.DropNoRoute++
		r.drop(pkt, DropNoRoute)
		return
	}
	fwd := pkt
	fwd.Via = route.NextHop
	fwd.TTL = pkt.TTL - 1
	r.enqueue(outItem{pkt: fwd}) //nolint:errcheck
}

// PendingAcks returns how many reliable sends await acknowledgement.
func (r *Router) PendingAcks() int { return len(r.pending) }

// String identifies the router in logs.
func (r *Router) String() string { return fmt.Sprintf("router(%v)", r.rad.ID()) }
