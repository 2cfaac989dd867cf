package tsdb

import (
	"slices"
	"strings"
)

// The series index: per metric, every series in canonical-key order,
// and per label pair a postings list of the series carrying it, in the
// same order. match intersects postings instead of testing every series
// of the metric and sorting the matches, so a one-node chart costs the
// same in a store of a thousand series as in one of a million.
//
// Readers copy what they match under the index lock, so writers insert
// into the lists in place, and a retention sweep compacts a metric's
// lists once.

// metricIndex is one metric's series. Guarded by DB.mu.
type metricIndex struct {
	all []*series
	// postings holds, per label name, one postings list per value, in
	// value order: a sorted slice costs half what a map entry does.
	postings map[string][]posting
}

// posting is the series carrying one label value.
type posting struct {
	value  string
	series []*series
}

// list returns the postings list of the label pair p.
func (mi *metricIndex) list(p labelPair) []*series {
	ps := mi.postings[p.name]
	if i, ok := searchValue(ps, p.value); ok {
		return ps[i].series
	}
	return nil
}

// searchValue returns where value is, or would be inserted, in ps, and
// whether it is there.
func searchValue(ps []posting, value string) (int, bool) {
	return slices.BinarySearchFunc(ps, value, func(p posting, value string) int { return strings.Compare(p.value, value) })
}

// searchKey returns where key is, or would be inserted, in list, and
// whether it is there.
func searchKey(list []*series, key string) (int, bool) {
	return slices.BinarySearchFunc(list, key, func(s *series, key string) int { return strings.Compare(s.key, key) })
}

// get returns the series with key, or nil.
func (mi *metricIndex) get(key string) *series {
	if i, ok := searchKey(mi.all, key); ok {
		return mi.all[i]
	}
	return nil
}

// add indexes a series whose key is not in mi yet.
func (mi *metricIndex) add(s *series) {
	i, _ := searchKey(mi.all, s.key)
	mi.all = slices.Insert(mi.all, i, s)
	for _, p := range s.labels {
		ps := mi.postings[p.name]
		i, ok := searchValue(ps, p.value)
		if !ok {
			ps = slices.Insert(ps, i, posting{value: p.value})
			mi.postings[p.name] = ps
		}
		j, _ := searchKey(ps[i].series, s.key)
		ps[i].series = slices.Insert(ps[i].series, j, s)
	}
}

// newIndex indexes series already in canonical-key order.
func newIndex(all []*series) *metricIndex {
	mi := &metricIndex{postings: make(map[string][]posting)}
	for _, s := range all {
		mi.add(s)
	}
	return mi
}

// dropDead removes the series marked dead from every list.
func (mi *metricIndex) dropDead() {
	dead := func(s *series) bool { return s.dead }
	mi.all = slices.DeleteFunc(mi.all, dead)
	for name, ps := range mi.postings {
		kept := ps[:0]
		for _, p := range ps {
			if p.series = slices.DeleteFunc(p.series, dead); len(p.series) > 0 {
				kept = append(kept, p)
			}
		}
		clear(ps[len(kept):])
		if len(kept) == 0 {
			delete(mi.postings, name)
		} else {
			mi.postings[name] = kept
		}
	}
}

// label returns the series' value for the label name, "" when absent.
func (s *series) label(name string) string {
	for _, p := range s.labels {
		if p.name == name {
			return p.value
		}
	}
	return ""
}

// match returns a copy of the metric's series whose labels contain
// matcher, in canonical label order, an absent label reading as "" (so
// {"k": ""} matches a series without k).
func (db *DB) match(name string, matcher Labels) []*series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	mi := db.metrics[name]
	if mi == nil {
		return nil
	}
	var out []*series
	narrowed := false
	for k, v := range matcher {
		if v == "" {
			continue
		}
		if list := mi.list(labelPair{k, v}); narrowed {
			out = intersect(out, list)
		} else {
			out, narrowed = slices.Clone(list), true
		}
		if len(out) == 0 {
			return nil
		}
	}
	if !narrowed {
		out = slices.Clone(mi.all)
	}
	for k, v := range matcher {
		if v == "" {
			out = slices.DeleteFunc(out, func(s *series) bool { return s.label(k) != "" })
		}
	}
	return out
}

// intersect keeps the series of a that are in b, both in canonical-key
// order, overwriting a.
func intersect(a, b []*series) []*series {
	out := a[:0]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].key, b[j].key); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
