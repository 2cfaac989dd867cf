package collector

import (
	"encoding/gob"
	"fmt"
	"slices"
	"sync"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// TestShardedEquivalence feeds identical traffic (gaps, duplicates,
// late reorders, restarts, many nodes) to a single-shard and a
// many-shard collector and requires every public view to agree —
// sharding must be invisible to readers.
func TestShardedEquivalence(t *testing.T) {
	cfgA := DefaultConfig()
	cfgA.Shards = 1
	cfgA.RecentPackets = 16 // force the merged ring to trim
	cfgB := DefaultConfig()
	cfgB.Shards = 8
	cfgB.RecentPackets = 16
	single := New(tsdb.New(), cfgA)
	sharded := New(tsdb.New(), cfgB)
	if single.ShardCount() != 1 || sharded.ShardCount() != 8 {
		t.Fatalf("shard counts = %d/%d, want 1/8", single.ShardCount(), sharded.ShardCount())
	}

	feed := func(node wire.NodeID, seqs ...uint64) {
		for _, s := range seqs {
			b := trafficBatch(node, s)
			errA := single.Ingest(b)
			errB := sharded.Ingest(b)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("node %d seq %d: single err=%v, sharded err=%v", node, s, errA, errB)
			}
		}
	}
	for node := wire.NodeID(1); node <= 12; node++ {
		feed(node, 1, 2, 3)
	}
	feed(1, 7, 7)       // gap + duplicate
	feed(2, 5, 4)       // gap + late reorder
	feed(3, 4, 5, 1, 2) // restart after in-order
	assertCollectorsEqual(t, single, sharded)
}

// TestShardedRecoveryRoundTrip is the recovery round-trip equality
// check under a many-shard collector — including a shard-count change
// across the restart, which the shard-agnostic snapshot format must
// absorb.
func TestShardedRecoveryRoundTrip(t *testing.T) {
	for _, recoverShards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("recover-into-%d", recoverShards), func(t *testing.T) {
			dir := t.TempDir()
			wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Shards = 4
			cfg.RecentPackets = 8
			cfg.WAL = wlog
			orig := New(tsdb.New(), cfg)

			feed := func(node wire.NodeID, seqs ...uint64) {
				for _, s := range seqs {
					if err := orig.Ingest(trafficBatch(node, s)); err != nil {
						t.Fatalf("ingest node %d seq %d: %v", node, s, err)
					}
				}
			}
			feed(1, 1, 2, 3)
			feed(2, 1, 2, 5, 5) // gap plus duplicate
			feed(6, 1)
			feed(9, 1, 2)
			if err := orig.Checkpoint(wlog); err != nil {
				t.Fatal(err)
			}
			feed(1, 4, 5)
			feed(2, 3) // late reorder across the checkpoint boundary
			feed(3, 1)
			if err := wlog.Crash(); err != nil {
				t.Fatal(err)
			}

			wlog2, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := DefaultConfig()
			cfg2.Shards = recoverShards
			cfg2.RecentPackets = 8
			cfg2.WAL = wlog2
			recovered := New(tsdb.New(), cfg2)
			if _, err := recovered.Recover(wlog2); err != nil {
				t.Fatal(err)
			}
			assertCollectorsEqual(t, orig, recovered)

			// The restored dedup state keeps working on every shard.
			if err := recovered.Ingest(trafficBatch(1, 6)); err != nil {
				t.Fatal(err)
			}
			n, _ := recovered.Node(1)
			if n.BatchesOK != 6 || n.BatchesDup != 0 {
				t.Fatalf("post-recovery ingest: %+v", n)
			}
		})
	}
}

// TestShardedCrashConsistency drives concurrent ingest across many
// nodes (hashing onto different shards) with fsync-per-batch, crashes
// mid-storm, and requires recovery to rebuild exactly the acknowledged
// batches — the zero-acked-loss contract through the sharded path and
// the group-commit appender together.
func TestShardedCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.WAL = wlog
	c := New(tsdb.New(), cfg)

	const (
		writers   = 8
		perWriter = 30
	)
	acked := make([]uint64, writers) // per-writer count of acked batches
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := wire.NodeID(i + 1)
			for seq := uint64(1); seq <= perWriter; seq++ {
				if err := c.Ingest(trafficBatch(node, seq)); err != nil {
					return // ErrDurability once crashed; stop acking
				}
				acked[i]++
			}
		}(w)
	}
	wg.Wait()
	if err := wlog.Crash(); err != nil {
		t.Fatal(err)
	}

	wlog2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.Shards = 3 // recover under a different shard count on purpose
	recovered := New(tsdb.New(), cfg2)
	if _, err := recovered.Recover(wlog2); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i, n := range acked {
		node := wire.NodeID(i + 1)
		info, ok := recovered.Node(node)
		if n > 0 && !ok {
			t.Fatalf("node %d acked %d batches but is missing after recovery", node, n)
		}
		if ok && info.BatchesOK != n {
			t.Fatalf("node %d: acked %d batches, recovered %d", node, n, info.BatchesOK)
		}
		total += n
	}
	if got := recovered.Stats().BatchesIngested; got != total {
		t.Fatalf("acked-data loss: acked %d batches, recovered %d", total, got)
	}
	if total == 0 {
		t.Fatal("no batches acked; test proved nothing")
	}
}

// TestShardDistribution sanity-checks the node→shard hash: sequential
// IDs must not all land on one shard.
func TestShardDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	c := New(tsdb.New(), cfg)
	hit := make(map[*shard]int)
	for id := wire.NodeID(1); id <= 64; id++ {
		hit[c.shardFor(id)]++
	}
	if len(hit) != 4 {
		t.Fatalf("64 sequential nodes landed on %d of 4 shards", len(hit))
	}
	for sh, n := range hit {
		if n > 40 {
			t.Fatalf("shard %p absorbed %d of 64 nodes — hash is badly skewed", sh, n)
		}
	}
}

// TestShardedIngestReadersSeeWholeBatches runs writers on distinct
// shards while readers call Recent, Stats, Nodes, Links and Checkpoint
// (under -race in CI). The ring holds every packet, so each read of it
// must consist of whole batches, each contiguous and in order, every
// node's batches in sequence from its first; each checkpoint must hold
// whole batches only, agreeing with its node registry and counters.
// Once ingest stops, Recent(0) holds every accepted packet exactly once
// and the counters equal the sums.
func TestShardedIngestReadersSeeWholeBatches(t *testing.T) {
	const (
		writers   = 4
		perWriter = 40
	)
	wlog, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	cfg := DefaultConfig()
	cfg.Shards, cfg.RecentPackets, cfg.WAL = writers, writers*perWriter*3, wlog
	c := New(tsdb.New(), cfg)

	// One node per shard.
	var nodes []wire.NodeID
	used := make(map[*shard]bool)
	for id := wire.NodeID(1); len(nodes) < writers; id++ {
		if sh := c.shardFor(id); !used[sh] {
			used[sh] = true
			nodes = append(nodes, id)
		}
	}
	// Batch seq of a node carries 1 + seq%3 packets; packet i of it has
	// Seq = seq and TTL = i, and is a HELLO heard from one of five
	// neighbours, so links keep appearing.
	batch := func(node wire.NodeID, seq uint64) wire.Batch {
		ts := float64(seq)
		b := wire.Batch{Node: node, SeqNo: seq, SentAt: ts,
			Heartbeats: []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts}}}
		for i := uint64(0); i < 1+seq%3; i++ {
			p := pktRecord(node, ts, wire.EventRx)
			p.Type, p.Src = "HELLO", 100+wire.NodeID((seq+i)%5)
			p.Seq, p.TTL = uint16(seq), uint8(i)
			b.Packets = append(b.Packets, p)
		}
		return b
	}
	// wholeBatches checks an oldest-first packet list and returns how
	// many batches of each node it holds.
	wholeBatches := func(oldestFirst []wire.PacketRecord) (map[wire.NodeID]uint64, error) {
		count := make(map[wire.NodeID]uint64)
		for i := 0; i < len(oldestFirst); {
			p := oldestFirst[i]
			seq := uint64(p.Seq)
			if seq != count[p.Node]+1 {
				return nil, fmt.Errorf("at %d: node %v batch %d follows batch %d", i, p.Node, seq, count[p.Node])
			}
			for k := uint64(0); k < 1+seq%3; k++ {
				if i >= len(oldestFirst) {
					return nil, fmt.Errorf("node %v batch %d cut short", p.Node, seq)
				}
				if q := oldestFirst[i]; q.Node != p.Node || uint64(q.Seq) != seq || uint64(q.TTL) != k {
					return nil, fmt.Errorf("at %d: node %v batch %d packet %d, got node %v seq %d packet %d",
						i, p.Node, seq, k, q.Node, q.Seq, q.TTL)
				}
				i++
			}
			count[p.Node]++
		}
		return count, nil
	}

	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+3) // one send at most per goroutine
	for _, node := range nodes {
		writersWG.Add(1)
		go func(node wire.NodeID) {
			defer writersWG.Done()
			for seq := uint64(1); seq <= perWriter; seq++ {
				if err := c.Ingest(batch(node, seq)); err != nil {
					errs <- err
					return
				}
			}
		}(node)
	}
	reader := func(read func() error) {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	reader(func() error {
		recent := c.Recent(0)
		slices.Reverse(recent)
		_, err := wholeBatches(recent)
		return err
	})
	reader(func() error {
		_ = c.Stats()
		_ = c.Nodes()
		_ = c.Links(0)
		return nil
	})
	reader(func() error {
		if err := c.Checkpoint(wlog); err != nil {
			return err
		}
		rc, ok, err := wlog.Snapshot()
		if err != nil || !ok {
			return fmt.Errorf("snapshot after checkpoint: ok=%v err=%v", ok, err)
		}
		defer rc.Close()
		var dump snapshotDump
		if err := gob.NewDecoder(rc).Decode(&dump); err != nil {
			return err
		}
		count, err := wholeBatches(dump.Recent)
		if err != nil {
			return fmt.Errorf("checkpoint ring: %w", err)
		}
		var batches, records uint64
		for _, nd := range dump.Nodes {
			if count[nd.Info.ID] != nd.Info.BatchesOK {
				return fmt.Errorf("checkpoint: node %v has %d batches in the ring, BatchesOK %d",
					nd.Info.ID, count[nd.Info.ID], nd.Info.BatchesOK)
			}
			batches += nd.Info.BatchesOK
			records += nd.Info.Records
		}
		if dump.Stats.BatchesIngested != batches || dump.Stats.RecordsIngested != records {
			return fmt.Errorf("checkpoint counters %+v, registry sums %d batches / %d records", dump.Stats, batches, records)
		}
		return nil
	})
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	recent := c.Recent(0)
	slices.Reverse(recent)
	count, err := wholeBatches(recent)
	if err != nil {
		t.Fatal(err)
	}
	var records uint64
	for _, node := range nodes {
		if count[node] != perWriter {
			t.Fatalf("Recent(0) holds %d batches of node %v, want %d", count[node], node, perWriter)
		}
		for seq := uint64(1); seq <= perWriter; seq++ {
			records += uint64(batch(node, seq).Len())
		}
	}
	st := c.Stats()
	if st.BatchesIngested != writers*perWriter || st.RecordsIngested != records || st.BatchesRejected != 0 {
		t.Fatalf("Stats %+v, want %d batches / %d records", st, writers*perWriter, records)
	}
	if st.NodesKnown != len(c.Nodes()) || st.LinksKnown != len(c.Links(0)) || st.LinksKnown != writers*5 {
		t.Fatalf("Stats knows %d nodes / %d links, lists hold %d / %d (want %d links)",
			st.NodesKnown, st.LinksKnown, len(c.Nodes()), len(c.Links(0)), writers*5)
	}
}
