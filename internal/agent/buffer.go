package agent

import "lorameshmon/internal/wire"

// kind tags a buffered record with the ring that holds it.
type kind uint8

const (
	kindPacket kind = iota
	kindRoute
	kindStats
	kindHeartbeat
	numKinds
)

// buffer is the agent's bounded record queue. Records are held by value,
// one ring per kind, so capturing one allocates nothing; order holds
// their kinds in capture order, so eviction, batching and a failed
// batch's requeue all see one interleaved sequence.
type buffer struct {
	order  ring[kind]
	pkts   ring[wire.PacketRecord]
	routes ring[wire.RouteSnapshot]
	stats  ring[wire.NodeStats]
	hbs    ring[wire.Heartbeat]
}

func (b *buffer) len() int { return b.order.n }

// dropOldest evicts the record captured first.
func (b *buffer) dropOldest() {
	switch b.order.popFront() {
	case kindPacket:
		b.pkts.popFront()
	case kindRoute:
		b.routes.popFront()
	case kindStats:
		b.stats.popFront()
	case kindHeartbeat:
		b.hbs.popFront()
	}
}

// dropNewest evicts the record captured last.
func (b *buffer) dropNewest() {
	switch b.order.popBack() {
	case kindPacket:
		b.pkts.popBack()
	case kindRoute:
		b.routes.popBack()
	case kindStats:
		b.stats.popBack()
	case kindHeartbeat:
		b.hbs.popBack()
	}
}

// requeue puts a failed batch's records back at the front, in the
// capture order kinds recorded when flush took them.
func (b *buffer) requeue(batch wire.Batch, kinds []kind) {
	np, nr, ns, nh := len(batch.Packets), len(batch.Routes), len(batch.Stats), len(batch.Heartbeats)
	for i := len(kinds) - 1; i >= 0; i-- {
		k := kinds[i]
		b.order.pushFront(k)
		switch k {
		case kindPacket:
			np--
			b.pkts.pushFront(batch.Packets[np])
		case kindRoute:
			nr--
			b.routes.pushFront(batch.Routes[nr])
		case kindStats:
			ns--
			b.stats.pushFront(batch.Stats[ns])
		case kindHeartbeat:
			nh--
			b.hbs.pushFront(batch.Heartbeats[nh])
		}
	}
}

// take moves the first n values out of r into a slice of exactly n, or
// returns nil when n is 0 (a batch leaves an absent kind nil).
func take[T any](r *ring[T], n int) []T {
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.popFront()
	}
	return out
}

// ringKeep is the most slots an empty ring keeps: a backlog built up
// during an uplink outage is released once it drains, while the rings
// of a node in its steady state are never reallocated.
const ringKeep = 256

// ring is a growable double-ended queue of values. Every slot it
// vacates is zeroed, so a record handed off or evicted is not kept
// reachable through the backing array.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) slot(i int) int { return (r.head + i) & (len(r.buf) - 1) }

func (r *ring[T]) grow() {
	c := 2 * len(r.buf)
	if c == 0 {
		c = 2 // most rings hold a record or two between flushes
	}
	b := make([]T, c)
	for i := 0; i < r.n; i++ {
		b[i] = r.buf[r.slot(i)]
	}
	r.buf, r.head = b, 0
}

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = v
	r.n++
}

func (r *ring[T]) pushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = r.slot(len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

func (r *ring[T]) popFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.slot(1)
	r.n--
	r.release()
	return v
}

func (r *ring[T]) popBack() T {
	var zero T
	i := r.slot(r.n - 1)
	v := r.buf[i]
	r.buf[i] = zero
	r.n--
	r.release()
	return v
}

// release drops an empty ring's storage when it is larger than ringKeep.
func (r *ring[T]) release() {
	if r.n == 0 && len(r.buf) > ringKeep {
		r.buf, r.head = nil, 0
	}
}
