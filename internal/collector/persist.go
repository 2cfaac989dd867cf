package collector

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// Snapshot + WAL recovery for the collector. A checkpoint captures the
// node registry, link observations, recent-packet ring, collector-wide
// counters and the whole time-series store in one gob stream, cut
// exactly on a batch boundary: the snapshot path write-locks every
// shard (a brief stop-the-world), and ingest updates the ring and the
// counters only while holding its shard lock, so the cut holds every
// batch whole or not at all. The snapshot format is shard-agnostic (the
// node and link lists are merged from per-shard sorted runs, the ring
// and counters are collector-wide), so a log written under one shard
// count recovers under any other. Recovery restores the newest
// snapshot and replays the WAL tail through the normal dedup state
// machine, so the rebuilt state is identical to what the collector had
// acknowledged before the crash.

// collectorSnapshotVersion guards the snapshot schema.
const collectorSnapshotVersion = 1

// nodeDump is one node's registry entry in a snapshot (exported fields
// for gob).
type nodeDump struct {
	Info    NodeInfo
	LastSeq uint64
	Seen    bool
	Missing []uint64 // tracked late-reorder gaps, sorted
}

// snapshotDump is the on-disk model of a collector checkpoint.
type snapshotDump struct {
	Version int
	Nodes   []nodeDump // sorted by node ID
	Links   []LinkObs  // sorted by (tx, rx)
	Recent  []wire.PacketRecord
	Stats   Stats
	MaxTS   float64
	DB      tsdb.SnapshotDump
}

// WriteSnapshot serialises the collector's full state (registry, links,
// recent packets, counters and the time-series store) to w as one gob
// stream, cut on a batch boundary consistent across every shard.
func (c *Collector) WriteSnapshot(w io.Writer) error {
	c.lockAll()
	defer c.unlockAll()
	return c.writeSnapshotAllLocked(w)
}

// writeSnapshotAllLocked is WriteSnapshot with every shard lock already
// held (the checkpoint path locks before cutting the WAL).
func (c *Collector) writeSnapshotAllLocked(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c.dumpAllLocked()); err != nil {
		return fmt.Errorf("collector: snapshot: %w", err)
	}
	return nil
}

// dumpAllLocked captures the full state with every shard lock held.
// The node and link lists are merges of per-shard sorted runs — the
// same merges the read APIs use — so the dump is deterministic and
// carries no trace of the shard layout.
func (c *Collector) dumpAllLocked() snapshotDump {
	byID := func(a, b *nodeDump) int { return cmp.Compare(a.Info.ID, b.Info.ID) }
	nodes := make([][]nodeDump, len(c.shards))
	links := make([][]LinkObs, 0, 2*len(c.shards))
	// The known counts stay 0 in the dump: restore recounts them from
	// the lists.
	stats := c.Stats()
	stats.NodesKnown, stats.LinksKnown = 0, 0
	dump := snapshotDump{
		Version: collectorSnapshotVersion,
		Stats:   stats,
		MaxTS:   c.MaxTS(),
		DB:      c.db.Dump(),
	}
	for i, sh := range c.shards {
		for _, st := range sh.nodes {
			nd := nodeDump{Info: st.info, LastSeq: st.lastSeq, Seen: st.seen}
			for s := range st.missing {
				nd.Missing = append(nd.Missing, s)
			}
			slices.Sort(nd.Missing)
			nodes[i] = append(nodes[i], nd)
		}
		slices.SortFunc(nodes[i], func(a, b nodeDump) int { return byID(&a, &b) })
		links = append(links, sh.links, sh.fresh)
	}
	dump.Nodes = tsdb.MergeRuns(nil, nodes, byID, nil, 0)
	dump.Links = MergeLinks(links)
	// The checkpoint keeps the ring oldest first.
	dump.Recent = c.Recent(0)
	slices.Reverse(dump.Recent)
	return dump
}

// RestoreSnapshot replaces the collector's state with the snapshot read
// from r, redistributing nodes and links to whatever shards they hash
// to under the current shard count. Each node's route table is rebuilt
// from its LastRoutes, so later snapshots diff as they would have
// before the checkpoint. Cached series handles are rebuilt lazily on
// the next ingest; the node and link counts are the list lengths.
func (c *Collector) RestoreSnapshot(r io.Reader) error {
	var dump snapshotDump
	if err := gob.NewDecoder(r).Decode(&dump); err != nil {
		return fmt.Errorf("collector: restore: %w", err)
	}
	if dump.Version != collectorSnapshotVersion {
		return fmt.Errorf("collector: restore: unsupported snapshot version %d", dump.Version)
	}

	c.lockAll()
	defer c.unlockAll()
	c.restores.Add(1)
	for _, sh := range c.shards {
		sh.nodes = make(map[wire.NodeID]*nodeState)
		sh.links, sh.fresh = nil, nil
	}
	for _, nd := range dump.Nodes {
		st := &nodeState{info: nd.Info, lastSeq: nd.LastSeq, seen: nd.Seen}
		if r := nd.Info.LastRoutes; r != nil {
			st.table = canonicalRoutes(r.Routes)
		}
		if len(nd.Missing) > 0 {
			st.missing = make(map[uint64]struct{}, len(nd.Missing))
			for _, s := range nd.Missing {
				st.missing[s] = struct{}{}
			}
		}
		c.shardFor(nd.Info.ID).nodes[nd.Info.ID] = st
	}
	// Links are owned by the shard of their receiving node, matching
	// where ingestPacket would have created them. The file's order is
	// not trusted: each shard's links are sorted (stably, so repeats
	// keep file order) and a key listed twice folds into one link.
	for _, l := range dump.Links {
		sh := c.shardFor(l.Rx)
		sh.links = append(sh.links, l)
	}
	links := 0
	for _, sh := range c.shards {
		slices.SortStableFunc(sh.links, func(a, b LinkObs) int { return cmpLink(&a, &b) })
		sh.links = MergeLinks([][]LinkObs{sh.links})
		links += len(sh.links)
	}
	// The dump's ring is oldest first; an oversized one keeps only its
	// newest entries.
	recent := dump.Recent
	if len(recent) > c.cfg.RecentPackets {
		recent = recent[len(recent)-c.cfg.RecentPackets:]
	}
	c.recentMu.Lock()
	c.recent, c.recentHead = recent, 0
	c.recentMu.Unlock()
	c.batchesIngested.Store(dump.Stats.BatchesIngested)
	c.batchesRejected.Store(dump.Stats.BatchesRejected)
	c.recordsIngested.Store(dump.Stats.RecordsIngested)
	c.nodesKnown.Store(int64(len(dump.Nodes)))
	c.linksKnown.Store(int64(links))
	c.setMaxTS(dump.MaxTS)
	return c.db.Load(dump.DB)
}

// Checkpoint cuts a WAL snapshot of the collector: it holds every shard
// lock across the segment rotation and the state dump, so the snapshot
// covers exactly the batches appended before the cut — on every shard —
// and the replay tail starts exactly after it.
func (c *Collector) Checkpoint(log *wal.Log) error {
	c.lockAll()
	defer c.unlockAll()
	return log.Checkpoint(c.writeSnapshotAllLocked)
}

// Recover rebuilds the collector from log: restore the newest snapshot
// (if any), then replay the uncovered WAL tail through the normal
// ingest path — minus the WAL append (the batches are already in the
// log) and the OnIngest hook (downstream consumers saw them before the
// crash). Counters in Stats and NodeInfo advance exactly as they did
// originally, so recovered state matches pre-crash state regardless of
// either side's shard count.
func (c *Collector) Recover(log *wal.Log) (wal.ReplayStats, error) {
	if rc, ok, err := log.Snapshot(); err != nil {
		return wal.ReplayStats{}, err
	} else if ok {
		err := c.RestoreSnapshot(rc)
		rc.Close()
		if err != nil {
			return wal.ReplayStats{}, err
		}
	}
	// Replay hands over batches its decoder has validated.
	return log.Replay(func(b wire.Batch) error {
		_, err := c.ingest(b, false)
		return err
	})
}
