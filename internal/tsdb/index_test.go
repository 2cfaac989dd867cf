package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// scanMatch is the reference match: it tests every live series of the
// metric against matcher, an absent label reading as "", and sorts the
// matched keys.
func scanMatch(live map[string]map[string]Labels, name string, matcher Labels) []string {
	var keys []string
	for key, labels := range live[name] {
		ok := true
		for k, v := range matcher {
			if labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

func matchKeys(db *DB, name string, matcher Labels) []string {
	var keys []string
	for _, s := range db.match(name, matcher) {
		keys = append(keys, s.key)
	}
	return keys
}

// TestMatchPostingsMatchesScan drives random label sets, empty values
// among them, through series creation, Retain and Prune deletes and
// Load, and requires match to answer every random matcher exactly as a
// scan of the live series followed by a sort.
func TestMatchPostingsMatchesScan(t *testing.T) {
	names := []string{"m1", "m2", "m3"}
	labelNames := []string{"node", "event", "type"}
	values := []string{"", "a", "b", "c", "N0001", "N0002"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randLabels := func(withAbsent bool) Labels {
			l := Labels{}
			for _, k := range labelNames {
				if withAbsent && rng.Intn(3) == 0 {
					continue
				}
				l[k] = values[rng.Intn(len(values))]
			}
			if len(l) == 0 && rng.Intn(2) == 0 {
				return nil
			}
			return l
		}
		// Odd seeds run without tiers, so Prune deletes a series exactly
		// when its newest sample is older than the cutoff and Retain only
		// the series never appended to. Even seeds give every tier the
		// same horizon, so Retain deletes as Prune does untiered, and
		// Prune, which leaves the rollups, only the never-appended.
		tiered := seed%2 == 0
		newDB := func() *DB {
			db := New()
			if tiered {
				db.ConfigureTiers(Retention{RawS: 3600, Rollup1mS: 3600, Rollup1hS: 3600})
			}
			return db
		}
		db := newDB()
		live := map[string]map[string]Labels{} // name -> key -> labels
		newest := map[string]float64{}         // name+key -> newest TS; absent: never appended
		evict := func(before float64) {
			for name, byKey := range live {
				for key := range byKey {
					if ts, ok := newest[name+"\x00"+key]; !ok || ts < before {
						delete(byKey, key)
						delete(newest, name+"\x00"+key)
					}
				}
			}
		}
		check := func(step string) {
			t.Helper()
			for i := 0; i < 40; i++ {
				name := names[rng.Intn(len(names))]
				matcher := randLabels(true)
				if rng.Intn(8) == 0 {
					matcher = Labels{"absent": ""}
				} else if rng.Intn(8) == 0 {
					matcher = Labels{"absent": "x"}
				}
				got, want := matchKeys(db, name, matcher), scanMatch(live, name, matcher)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d after %s: match(%s, %v) = %q, scan = %q", seed, step, name, matcher, got, want)
				}
			}
			n := 0
			for _, byKey := range live {
				n += len(byKey)
			}
			if db.SeriesCount() != n {
				t.Fatalf("seed %d after %s: %d series, want %d", seed, step, db.SeriesCount(), n)
			}
		}
		now := 0.0
		for round := 0; round < 12; round++ {
			for i := 0; i < 30; i++ {
				name, labels := names[rng.Intn(len(names))], randLabels(true)
				if live[name] == nil {
					live[name] = map[string]Labels{}
				}
				key := labels.canonical()
				live[name][key] = labels
				if rng.Intn(6) == 0 {
					db.Series(name, labels) // registered, never appended
					continue
				}
				ts := now + rng.Float64()*600
				db.Append(name, labels, ts, 1)
				if old, ok := newest[name+"\x00"+key]; !ok || ts > old {
					newest[name+"\x00"+key] = ts
				}
			}
			check("creates")
			now += 900
			switch rng.Intn(3) {
			case 0:
				db.Retain(now)
				if tiered {
					evict(now - 3600)
				} else {
					evict(math.Inf(-1))
				}
				check("Retain")
			case 1:
				before := now - 1800*rng.Float64()
				db.Prune(before)
				if tiered {
					evict(math.Inf(-1))
				} else {
					evict(before)
				}
				check("Prune")
			default:
				// A loaded store holds every dumped series, the never
				// appended ones too; its next sweep removes those.
				loaded := newDB()
				if err := loaded.Load(db.Dump()); err != nil {
					t.Fatal(err)
				}
				db = loaded
				check("Load")
			}
		}
	}
}

// matchStore is one metric of n series, ten per node.
func matchStore(n int) *DB {
	db := New()
	for i := 0; i < n; i++ {
		db.Append("m", Labels{"node": fmt.Sprintf("N%05d", i/10), "ch": fmt.Sprint(i % 10)}, 1, 1)
	}
	return db
}

// TestMatchAllocsIndependentOfSeriesCount: matching one node's series
// allocates as often in a store of 10 000 series as in one of 1 000,
// through match and through the Query that reads them.
func TestMatchAllocsIndependentOfSeriesCount(t *testing.T) {
	matcher := Labels{"node": "N00042"}
	var allocs [2][2]float64
	for i, n := range []int{1000, 10000} {
		db := matchStore(n)
		if got := len(db.match("m", matcher)); got != 10 {
			t.Fatalf("%d series: %d matched, want 10", n, got)
		}
		allocs[i][0] = testing.AllocsPerRun(100, func() { db.match("m", matcher) })
		allocs[i][1] = testing.AllocsPerRun(100, func() { db.Query("m", matcher, 0, 2) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs (match, Query) at 1 000 series %v, at 10 000 %v", allocs[0], allocs[1])
	}
	if allocs[0][0] > 1 {
		t.Fatalf("match of one label allocates %v times, want only its result", allocs[0][0])
	}
}

var matchSink []*series

// BenchmarkMatch times matching one node's series in stores of 1 000
// and 10 000 series, alternating between them, and fails when the
// larger store takes more than twice as long.
func BenchmarkMatch(b *testing.B) {
	matcher := Labels{"node": "N00042"}
	dbs := [2]*DB{matchStore(1000), matchStore(10000)}
	var spent [2]time.Duration
	for range b.N {
		for i, db := range dbs {
			start := time.Now()
			for range 100 {
				matchSink = db.match("m", matcher)
			}
			spent[i] += time.Since(start)
		}
	}
	ns := func(i int) float64 { return float64(spent[i].Nanoseconds()) / float64(100*b.N) }
	b.ReportMetric(ns(0), "ns/match-1000")
	b.ReportMetric(ns(1), "ns/match-10000")
	if spent[0]+spent[1] > 50*time.Millisecond && spent[1] > 2*spent[0] {
		b.Fatalf("match at 10 000 series %.0f ns, at 1 000 %.0f ns: more than 2x", ns(1), ns(0))
	}
}

// TestMatchConcurrentWithCreatesAndSweeps matches and queries while other
// goroutines create series and sweep them away: every answer must be in
// canonical order and hold only series carrying the matched label. Run
// it under -race: writers insert into and compact the postings lists in
// place while readers copy them.
func TestMatchConcurrentWithCreatesAndSweeps(t *testing.T) {
	db := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // creates, in and out of key order
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Append("m", Labels{"node": fmt.Sprintf("N%04d", (i*37)%500), "ch": fmt.Sprint(i % 3)}, float64(i), 1)
		}
	}()
	go func() { // sweeps
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Prune(float64(i * 50))
		}
	}()
	for i := 0; i < 2000; i++ {
		node := fmt.Sprintf("N%04d", (i*37)%500)
		got := db.match("m", Labels{"node": node})
		for j, s := range got {
			if s.label("node") != node || j > 0 && got[j-1].key >= s.key {
				close(stop)
				wg.Wait()
				t.Fatalf("match(node=%s): %q after %q", node, s.key, got[max(j-1, 0)].key)
			}
		}
		db.Query("m", Labels{"ch": "1"}, 0, math.Inf(1))
	}
	close(stop)
	wg.Wait()
}
