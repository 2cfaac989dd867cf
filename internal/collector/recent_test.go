package collector

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// recentCopyAndSort is the reference Recent: concatenate every shard's
// full ring, sort by sequence stamp, keep the newest limit.
func recentCopyAndSort(c *Collector, limit int) []wire.PacketRecord {
	var entries []recentEntry
	for _, s := range c.shards {
		s.mu.RLock()
		entries = append(entries, s.recent...)
		s.mu.RUnlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq > entries[j].seq })
	n := c.cfg.RecentPackets
	if len(entries) < n {
		n = len(entries)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]wire.PacketRecord, limit)
	for i := range out {
		out[i] = entries[i].rec
	}
	return out
}

// TestRecentMatchesCopyAndSort: at 1, 3 and 8 shards, after every
// batch of a seeded stream — rings empty, filling, full and wrapping,
// and across a snapshot restore — the ring-walk merge returns exactly
// what copying and sorting every ring returns, for limits at, around
// and beyond the capacity, and for limit <= 0.
func TestRecentMatchesCopyAndSort(t *testing.T) {
	const capacity = 37
	limits := []int{-1, 0, 1, 2, 5, capacity - 1, capacity, capacity + 1, 100}
	for _, shards := range []int{1, 3, 8} {
		cfg := DefaultConfig()
		cfg.Shards, cfg.RecentPackets = shards, capacity
		c := New(tsdb.New(), cfg)
		rng := rand.New(rand.NewSource(int64(shards)))
		seq := make(map[wire.NodeID]uint64)
		stamp := uint16(0)
		check := func(step int) {
			for _, limit := range limits {
				got, want := c.Recent(limit), recentCopyAndSort(c, limit)
				if !reflect.DeepEqual(got, want) {
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
