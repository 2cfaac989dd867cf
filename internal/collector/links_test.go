package collector

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// checkShardLinks fails unless every shard's links and fresh links are
// each strictly increasing in (tx, rx) — sorted, with no key twice — no
// key is in both, and fresh holds at most freshLinks.
func checkShardLinks(t *testing.T, c *Collector, where string) {
	t.Helper()
	for i, s := range c.shards {
		s.mu.RLock()
		for name, run := range map[string][]LinkObs{"links": s.links, "fresh": s.fresh} {
			for k := 1; k < len(run); k++ {
				if cmpLink(&run[k-1], &run[k]) >= 0 {
					t.Fatalf("%s: shard %d %s out of order at %d: %v→%v then %v→%v", where, i, name, k,
						run[k-1].Tx, run[k-1].Rx, run[k].Tx, run[k].Rx)
				}
			}
		}
		for _, l := range s.fresh {
			if _, ok := SearchLinks(s.links, l.Tx, l.Rx); ok {
				t.Fatalf("%s: shard %d holds %v→%v twice", where, i, l.Tx, l.Rx)
			}
		}
		if len(s.fresh) > freshLinks {
			t.Fatalf("%s: shard %d holds %d fresh links, over %d", where, i, len(s.fresh), freshLinks)
		}
		s.mu.RUnlock()
	}
}

// TestShardLinksStaySorted: at 1, 4 and 7 shards, HELLO receptions from
// random transmitters (some never registered, some the receiver itself)
// keep every shard's links sorted and unique, through several merges of
// the fresh links; Links(from) equals the
// collect-and-sort reference and LinksKnown the distinct count. A dump
// whose link list is reversed and repeats keys restores sorted and
// unique, each repeat folded in file order, and ingest goes on from it.
// A HELLO on a known link allocates nothing.
func TestShardLinksStaySorted(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		c := New(tsdb.New(), cfg)
		rng := rand.New(rand.NewSource(int64(shards)))
		seq := map[wire.NodeID]uint64{}
		distinct := map[[2]wire.NodeID]bool{}
		for step := 0; step < 2500; step++ {
			node := wire.NodeID(1 + rng.Intn(80))
			seq[node]++
			ts := float64(step)
			b := wire.Batch{Node: node, SeqNo: seq[node], SentAt: ts}
			for k := rng.Intn(6); k > 0; k-- {
				p := pktRecord(node, ts, wire.EventRx)
				p.Type, p.Src = "HELLO", wire.NodeID(1+rng.Intn(120))
				p.RSSIdBm, p.SNRdB = -125+60*rng.Float64(), -12+20*rng.Float64()
				b.Packets = append(b.Packets, p)
				if p.Src != node {
					distinct[[2]wire.NodeID{p.Src, node}] = true
				}
			}
			if err := c.Ingest(b); err != nil {
				t.Fatal(err)
			}
			if step%100 == 0 {
				checkShardLinks(t, c, "ingest")
			}
		}
		checkShardLinks(t, c, "ingest")
		if len(distinct) < 3*freshLinks*shards {
			t.Fatalf("%d shards: only %d links, too few to merge fresh links repeatedly", shards, len(distinct))
		}
		for _, from := range []float64{0, 1, 1200, 2499, 2500} {
			if got, want := c.Links(from), parentLinks(c, from); !slices.Equal(got, want) {
				t.Fatalf("%d shards: Links(%v) differs from the reference:\n got %v\nwant %v", shards, from, got, want)
			}
		}
		if got := c.Stats().LinksKnown; got != len(distinct) {
			t.Fatalf("%d shards: LinksKnown = %d, want %d distinct links", shards, got, len(distinct))
		}

		// A HELLO on a known link allocates nothing.
		l := c.Links(0)[0]
		p := pktRecord(l.Rx, 3000, wire.EventRx)
		p.Type, p.Src = "HELLO", l.Tx
		s := c.shardFor(l.Rx)
		if n := testing.AllocsPerRun(100, func() { s.observeLink(&p) }); n != 0 {
			t.Fatalf("%d shards: a HELLO on a known link allocated %v times", shards, n)
		}

		// Restore a dump whose links come reversed, every third one twice
		// with its own counts, into a collector of another shard count.
		c.lockAll()
		dump := c.dumpAllLocked()
		c.unlockAll()
		var tampered []LinkObs
		for i := len(dump.Links) - 1; i >= 0; i-- {
			tampered = append(tampered, dump.Links[i])
			if i%3 == 0 {
				dup := dump.Links[i]
				dup.Count, dup.MeanRSSI, dup.LastTS = 2, -50, dup.LastTS+1000
				tampered = append(tampered, dup)
			}
		}
		dump.Links = tampered
		// The reference folds repeats in file order through a map and
		// sorts once.
		folded := map[[2]wire.NodeID]*LinkObs{}
		var want []LinkObs
		for _, l := range tampered {
			k := [2]wire.NodeID{l.Tx, l.Rx}
			if have, ok := folded[k]; ok {
				foldLinkObs(have, &l)
			} else {
				folded[k] = &l
			}
		}
		for _, l := range folded {
			want = append(want, *l)
		}
		slices.SortFunc(want, func(a, b LinkObs) int { return cmpLink(&a, &b) })

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(dump); err != nil {
			t.Fatal(err)
		}
		cfg.Shards = shards + 1
		r := New(tsdb.New(), cfg)
		if err := r.RestoreSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		checkShardLinks(t, r, "restore")
		if got := r.Links(0); !slices.Equal(got, want) {
			t.Fatalf("%d shards: restored links differ from the folded reference:\n got %v\nwant %v", shards, got, want)
		}
		if got := r.Stats().LinksKnown; got != len(want) {
			t.Fatalf("%d shards: restored LinksKnown = %d, want %d", shards, got, len(want))
		}
		seq[l.Rx]++
		if err := r.Ingest(wire.Batch{Node: l.Rx, SeqNo: seq[l.Rx], SentAt: 4000, Packets: []wire.PacketRecord{p}}); err != nil {
			t.Fatal(err)
		}
		checkShardLinks(t, r, "ingest after restore")
		if got := r.Stats().LinksKnown; got != len(want) {
			t.Fatalf("%d shards: a known link's HELLO after restore made LinksKnown %d, want %d", shards, got, len(want))
		}
	}
}
