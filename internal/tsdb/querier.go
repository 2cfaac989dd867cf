package tsdb

// Querier is the read side of the store: every query primitive the
// dashboard, the alert engine and the analysis library use. *DB
// implements it directly; a federated implementation can fan the same
// calls out to member stores and merge, so read-side consumers never
// know whether one process or many answered.
//
// Implementations must order deterministically wherever *DB does:
// Query/QueryRange results by canonical label string, points by
// timestamp. MergeQuery and MergeRange build that order from per-store
// answers.
type Querier interface {
	// Query returns every series of the metric whose labels contain
	// matcher, restricted to from <= TS <= to.
	Query(name string, matcher Labels, from, to float64) []Result
	// QueryOne returns the single series matching exactly (name, labels).
	QueryOne(name string, labels Labels, from, to float64) (Result, bool)
	// QueryRange answers a resolution-aware range query bucketed onto a
	// grid of width step aligned to from and reduced with agg. A raw-tier
	// bucket's min and max are NaN when its first value is NaN (a later
	// NaN is passed over), and its sum starts from +0, so a lone -0 sums
	// to +0; a rollup-tier bucket starts at its first rollup bucket, so a
	// lone -0 sums to -0.
	QueryRange(name string, matcher Labels, from, to, step float64, agg Agg) []Result
	// AggregateRange folds every matched point in [from, to] into one
	// value (NaN when nothing matches; count returns 0). NaN values are
	// skipped: min and max are +Inf and -Inf when every value is NaN. The
	// sum starts from +0.
	AggregateRange(name string, matcher Labels, from, to float64, agg Agg) float64
	// IterOne streams the exact series' raw points in [from, to].
	IterOne(name string, labels Labels, from, to float64) (Iter, bool)
	// Latest returns the most recent sample of the exact series.
	Latest(name string, labels Labels) (Point, bool)
}

var _ Querier = (*DB)(nil)

// PointsIter wraps an already-materialised, time-ordered point slice in
// an Iter — the building block for Querier implementations that merge
// points from several stores and must hand them back through the
// streaming interface.
func PointsIter(pts []Point) Iter {
	return Iter{flat: pts}
}
