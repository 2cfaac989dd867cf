package collector

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// ingestModel is the reference for the collector-wide state that the
// shard layout must not show through: fed by Config.OnIngest, it
// appends every accepted batch's packets in ingest order and sums the
// batch and record counts.
type ingestModel struct {
	mu      sync.Mutex
	packets []wire.PacketRecord
	batches uint64
	records uint64
}

func (m *ingestModel) onIngest(b wire.Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.packets = append(m.packets, b.Packets...)
	m.batches++
	m.records += uint64(b.Len())
}

// recent is what Recent(limit) answers from a ring of the given
// capacity: the newest min(limit, capacity) packets, newest first
// (limit <= 0 means the whole capacity).
func (m *ingestModel) recent(capacity, limit int) []wire.PacketRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := min(len(m.packets), capacity)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]wire.PacketRecord, n)
	for i := range out {
		out[i] = m.packets[len(m.packets)-1-i]
	}
	return out
}

// TestRecentMatchesIngestModel: at 1, 3 and 8 shards, after every batch
// of a seeded stream — ring empty, filling, full and wrapping, and
// across a snapshot restore into another shard count — Recent returns
// exactly the model's newest packets, for limits at, around and beyond
// the capacity, and for limit <= 0.
func TestRecentMatchesIngestModel(t *testing.T) {
	const capacity = 37
	limits := []int{-1, 0, 1, 2, 5, capacity - 1, capacity, capacity + 1, 100}
	for _, shards := range []int{1, 3, 8} {
		model := &ingestModel{}
		cfg := DefaultConfig()
		cfg.Shards, cfg.RecentPackets, cfg.OnIngest = shards, capacity, model.onIngest
		c := New(tsdb.New(), cfg)
		rng := rand.New(rand.NewSource(int64(shards)))
		seq := make(map[wire.NodeID]uint64)
		stamp := uint16(0)
		check := func(step int) {
			for _, limit := range limits {
				if got, want := c.Recent(limit), model.recent(capacity, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d step %d limit %d: Recent\n got %v\nwant %v", shards, step, limit, got, want)
				}
			}
		}
		check(0)
		for step := 1; step <= 120; step++ {
			if step == 60 {
				var buf bytes.Buffer
				if err := c.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				cfg.Shards = shards%3 + 1
				c = New(tsdb.New(), cfg)
				if err := c.RestoreSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				check(step)
			}
			b := randomKnownBatch(rng, seq, step)
			for i := range b.Packets {
				stamp++
				b.Packets[i].Seq = stamp // tell otherwise equal records apart
			}
			if err := c.Ingest(b); err != nil {
				t.Fatal(err)
			}
			check(step)
		}
	}
}
