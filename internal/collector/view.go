package collector

import (
	"sync"

	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// View is the read side of the collector: everything the dashboard, the
// alert engine and the analysis library consume. Depending on View
// instead of *Collector keeps those layers decoupled from the storage
// core — the sharded collector satisfies it today, and a remote or
// fan-in implementation could tomorrow without touching a consumer.
//
// All slice-returning methods order deterministically (Nodes by ID,
// Links by (tx, rx), Recent newest-first), so renderings and golden
// outputs built on a View are stable under any shard layout.
type View interface {
	// Nodes returns the full node registry, sorted by node ID.
	Nodes() []NodeInfo
	// Node returns the registry entry for one node.
	Node(id wire.NodeID) (NodeInfo, bool)
	// Links returns observed direct links, sorted by (tx, rx); from > 0
	// filters to links heard at or after that timestamp.
	Links(from float64) []LinkObs
	// Recent returns up to limit of the newest packet records, newest
	// first (limit <= 0 means all retained).
	Recent(limit int) []wire.PacketRecord
	// Stats returns collector-wide ingest counters.
	Stats() Stats
	// MaxTS is the newest record timestamp seen — "now" in record time.
	MaxTS() float64
	// Epoch is the ingest epoch: a monotone counter advancing once per
	// accepted batch, after that batch's state is visible. Readers that
	// cache rendered output key it on the epoch — equal epochs imply
	// identical read-side state. A federated View sums member epochs.
	Epoch() uint64
	// Changed returns a channel closed on the next epoch advance — the
	// push half of the invalidation hook. The channel is shared across
	// waiters. To wait without missing an advance, obtain the channel
	// FIRST, re-check Epoch, and only then block:
	//
	//	ch := v.Changed()
	//	if v.Epoch() != last { ...advanced already... }
	//	<-ch
	//
	// An advance that lands after the Epoch read closes the channel
	// already held; one that landed before shows up in the re-check.
	Changed() <-chan struct{}
	// Restores counts wholesale replacements of the node registry and
	// link table (snapshot restores). Between two equal readings both
	// sets only grow, so equal Stats().NodesKnown and LinksKnown imply
	// the same sets — which lets a fan-in View cache its distinct counts
	// instead of materialising member sets on every Stats call.
	Restores() uint64
	// DB exposes the read side of the backing time-series store for
	// range queries. It is an interface, not *tsdb.DB, so a federated
	// View can answer by fanning queries out to member stores.
	DB() tsdb.Querier
	// Metrics exposes the self-observability registry.
	Metrics() *metrics.Registry
}

// Broadcast is the push side of Changed: Wake closes the channel
// Changed handed out, then calls every function Subscribe registered,
// on the waking goroutine. A fan-in View subscribes its own Broadcast's
// Wake to each member's, so no goroutine has to watch the members. The
// zero value is ready to use.
type Broadcast struct {
	mu   sync.Mutex
	ch   chan struct{} // made on demand: unwatched, Wake allocates nothing
	subs []func()      // only appended to, so Wake iterates a snapshot
}

// Changed returns the channel the next Wake closes.
func (b *Broadcast) Changed() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

// Subscribe registers wake to run after every later Wake, for as long
// as b lives. wake runs after the epoch advance is visible and must not
// block.
func (b *Broadcast) Subscribe(wake func()) {
	b.mu.Lock()
	b.subs = append(b.subs, wake)
	b.mu.Unlock()
}

// Wake closes the current Changed channel and calls every subscriber.
// Callers advance their epoch first.
func (b *Broadcast) Wake() {
	b.mu.Lock()
	ch, subs := b.ch, b.subs
	b.ch = nil
	b.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	for _, wake := range subs {
		wake()
	}
}

// Store is the write side of the collector — the uplink.Sink shape.
// Ingest validates and stores one batch; with a WAL configured, a nil
// return means the batch is as durable as the log's fsync policy
// promises.
type Store interface {
	Ingest(b wire.Batch) error
}

// The concrete collector implements both sides.
var (
	_ View  = (*Collector)(nil)
	_ Store = (*Collector)(nil)
)
