package collector

import (
	"cmp"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// Registry and link merges. A collector's shards and a federation's
// members both partition the node space, and both answer Nodes and
// Links by handing tsdb.MergeRuns one sorted run per partition. Shards
// never share a key; federation members can (a node or link handed off
// between two members), and then the folds below combine the entries
// in run order.

// MergeNodes merges node registry runs, each sorted by ID, into one
// list sorted by ID. A node present in several runs folds with
// foldNodeInfo, earlier runs first.
func MergeNodes(runs [][]NodeInfo) []NodeInfo {
	return tsdb.MergeRuns(nil, runs, cmpNodeID, foldNodeInfo, 0)
}

func cmpNodeID(a, b *NodeInfo) int { return cmp.Compare(a.ID, b.ID) }

// foldNodeInfo folds b into a: counters sum (partitions hold disjoint
// batches), first-seen takes the earliest, descriptive last-* fields
// follow the newest timestamp, with a (the earlier run) winning exact
// ties, and route histories merge newest first, a's entries first among
// equal timestamps.
func foldNodeInfo(a, b *NodeInfo) {
	if b.LastSeenTS > a.LastSeenTS {
		a.LastSeenTS = b.LastSeenTS
	}
	if b.FirstSeenTS < a.FirstSeenTS {
		a.FirstSeenTS = b.FirstSeenTS
	}
	if b.LastBeatTS > a.LastBeatTS {
		a.LastBeatTS = b.LastBeatTS
		a.UptimeS = b.UptimeS
		if b.Firmware != "" {
			a.Firmware = b.Firmware
		}
	}
	a.BatchesOK += b.BatchesOK
	a.BatchesLost += b.BatchesLost
	a.BatchesDup += b.BatchesDup
	a.BatchesLate += b.BatchesLate
	a.Records += b.Records
	if b.LastStats != nil && (a.LastStats == nil || b.LastStats.TS > a.LastStats.TS) {
		a.LastStats = b.LastStats
	}
	if b.LastRoutes != nil && (a.LastRoutes == nil || b.LastRoutes.TS > a.LastRoutes.TS) {
		a.LastRoutes = b.LastRoutes
	}
	a.RouteHistory = mergeRouteHistory(a.RouteHistory, b.RouteHistory)
}

// MergeLinks merges link runs, each sorted by (tx, rx), into one list
// sorted by (tx, rx). A link present in several runs merges exactly:
// counts add, means recombine count-weighted, last-heard follows the
// newest timestamp.
func MergeLinks(runs [][]LinkObs) []LinkObs {
	return tsdb.MergeRuns(nil, runs, cmpLink, foldLinkObs, 0)
}

func cmpLink(a, b *LinkObs) int {
	if c := cmp.Compare(a.Tx, b.Tx); c != 0 {
		return c
	}
	return cmp.Compare(a.Rx, b.Rx)
}

// SearchLinks finds the link tx→rx in links sorted by (tx, rx), as
// Links returns them: its index and true, or where it would be inserted
// and false. It compares in place (slices.BinarySearchFunc would copy
// each probed LinkObs into its comparison) and allocates nothing.
func SearchLinks(links []LinkObs, tx, rx wire.NodeID) (int, bool) {
	lo, hi := 0, len(links)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l := &links[m]; l.Tx < tx || l.Tx == tx && l.Rx < rx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(links) && links[lo].Tx == tx && links[lo].Rx == rx
}

func foldLinkObs(have, l *LinkObs) {
	total := have.Count + l.Count
	if total > 0 {
		have.MeanRSSI = (have.MeanRSSI*float64(have.Count) + l.MeanRSSI*float64(l.Count)) / float64(total)
		have.MeanSNR = (have.MeanSNR*float64(have.Count) + l.MeanSNR*float64(l.Count)) / float64(total)
	}
	have.Count = total
	if l.FirstTS < have.FirstTS {
		have.FirstTS = l.FirstTS
	}
	if l.LastTS > have.LastTS {
		have.LastTS = l.LastTS
		have.LastRSSI = l.LastRSSI
		have.LastSNR = l.LastSNR
	}
}
