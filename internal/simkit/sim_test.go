package simkit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*Time(time.Millisecond), func() { got = append(got, 3) })
	s.At(10*Time(time.Millisecond), func() { got = append(got, 1) })
	s.At(20*Time(time.Millisecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(time.Millisecond) {
		t.Fatalf("final time = %v, want 30ms", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Second), func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events reordered: %v", got)
		}
	}
}

func TestAfterClampsNegative(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock = %v, want 0", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestStopPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.After(time.Second, func() { fired = true })
	if !ev.Stop() {
		t.Fatal("Stop on pending event reported false")
	}
	if ev.Stop() {
		t.Fatal("second Stop reported true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped event fired")
	}
}

func TestStopFromWithinEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	later := s.After(2*time.Second, func() { fired = true })
	s.After(time.Second, func() { later.Stop() })
	s.Run()
	if fired {
		t.Fatal("event stopped by an earlier event still fired")
	}
}

func TestRunUntilAdvancesClockAndKeepsFuture(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(10*time.Second, func() { fired++ })
	s.RunUntil(Time(5 * time.Second))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired after resume = %d, want 2", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.After(time.Second, func() { fired = true })
	s.RunUntil(Time(time.Second))
	if !fired {
		t.Fatal("event at the deadline did not fire")
	}
}

func TestHaltStopsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (halt ignored)", count)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

func TestTickerTicksAndStops(t *testing.T) {
	s := New(1)
	ticks := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		ticks++
		if ticks == 5 {
			tk.Stop()
		}
	})
	s.RunUntil(Time(time.Minute))
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestTickerCadence(t *testing.T) {
	s := New(1)
	var at []Time
	s.Every(3*time.Second, func() { at = append(at, s.Now()) })
	s.RunUntil(Time(10 * time.Second))
	want := []Time{Time(3 * time.Second), Time(6 * time.Second), Time(9 * time.Second)}
	if len(at) != len(want) {
		t.Fatalf("tick times = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("tick times = %v, want %v", at, want)
		}
	}
}

func TestEveryRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var vals []float64
		s.Every(time.Second, func() { vals = append(vals, s.Rand().Float64()) })
		s.RunUntil(Time(10 * time.Second))
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestEventsFiredCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", s.EventsFired())
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 10 * time.Second
	for i := 0; i < 1000; i++ {
		j := Jitter(rng, d, 0.25)
		if j < 7500*time.Millisecond || j > 12500*time.Millisecond {
			t.Fatalf("jittered value %v outside [7.5s, 12.5s]", j)
		}
	}
	if Jitter(rng, d, 0) != d {
		t.Fatal("zero-fraction jitter changed the duration")
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestPropertyOrderingInvariant(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(3)
		var fireTimes []Time
		var max Duration
		for _, d := range delays {
			dur := time.Duration(d) * time.Millisecond
			if dur > max {
				max = dur
			}
			s.After(dur, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return s.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stopped event never fires no matter where it sits in the
// schedule.
func TestPropertyStopInvariant(t *testing.T) {
	f := func(delays []uint8, stopIdx uint8) bool {
		if len(delays) == 0 {
			return true
		}
		idx := int(stopIdx) % len(delays)
		s := New(5)
		fired := make([]bool, len(delays))
		events := make([]*Event, len(delays))
		for i, d := range delays {
			i := i
			events[i] = s.After(time.Duration(d)*time.Millisecond, func() { fired[i] = true })
		}
		events[idx].Stop()
		s.Run()
		for i := range fired {
			if i == idx && fired[i] {
				return false
			}
			if i != idx && !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStopRemovesEventFromQueue(t *testing.T) {
	s := New(1)
	ev := s.After(time.Second, func() { t.Error("stopped event fired") })
	s.After(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	if !ev.Stop() {
		t.Fatal("Stop on pending event reported false")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending after Stop = %d, want 1 (stopped event must leave the heap immediately)", s.Pending())
	}
	s.Run()
}

func TestStopMiddleOfQueuePreservesOrder(t *testing.T) {
	s := New(1)
	var order []int
	events := make([]*Event, 8)
	for i := range events {
		i := i
		events[i] = s.After(time.Duration(i+1)*time.Second, func() { order = append(order, i) })
	}
	events[3].Stop()
	events[5].Stop()
	s.Run()
	want := []int{0, 1, 2, 4, 6, 7}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestDoFiresInTimestampOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.Do(3*time.Second, func() { order = append(order, 3) })
	s.DoAt(Time(time.Second), func() { order = append(order, 1) })
	s.Do(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestDoReschedulingFromCallback(t *testing.T) {
	// A Do callback that schedules another Do may reuse the very event
	// object that is firing; the chain must still run to completion.
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.Do(time.Second, tick)
		}
	}
	s.Do(time.Second, tick)
	end := s.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if end != Time(100*time.Second) {
		t.Fatalf("end = %v, want 100s", end)
	}
}

func TestDoRecyclesEventObjects(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm up the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.Do(0, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Do(0, fn)
		s.Run()
	})
	if allocs >= 1 {
		t.Fatalf("Do allocates %.1f objects per event, want 0 (free-list reuse)", allocs)
	}
}

func TestMixedDoAndHandleEvents(t *testing.T) {
	// Handle events interleaved with recycled ones: stopping a handle
	// must never disturb a recycled event occupying a different slot.
	s := New(1)
	fired := 0
	for i := 0; i < 50; i++ {
		d := time.Duration(i+1) * time.Second
		s.Do(d, func() { fired++ })
		ev := s.After(d, func() { fired++ })
		if i%2 == 0 {
			ev.Stop()
		}
	}
	s.Run()
	if fired != 50+25 {
		t.Fatalf("fired = %d, want 75", fired)
	}
}

// TestTimerOrdersLikeAfter: every Reset takes one sequence number, as
// After does, so a re-armed Timer fires in the slot a fresh After
// scheduled at the same moment would take; re-arming a pending Timer
// moves it, and Stop cancels it until the next Reset.
func TestTimerOrdersLikeAfter(t *testing.T) {
	run := func(useTimer bool) []string {
		s := New(1)
		var log []string
		var ev *Event
		var tm *Timer
		arm := func(d Duration, fn func()) {
			if useTimer {
				tm.Reset(d)
				return
			}
			if ev != nil {
				ev.Stop()
			}
			ev = s.After(d, fn)
		}
		n := 0
		var fire func()
		fire = func() {
			n++
			log = append(log, fmt.Sprintf("timer %d at %v", n, s.Now()))
			if n < 20 {
				arm(Duration(n%3)*time.Second, fire)
			}
		}
		tm = s.NewTimer(fire)
		for i := 0; i < 30; i++ {
			i := i
			s.Do(Duration(i%4)*time.Second, func() {
				log = append(log, fmt.Sprintf("do %d at %v", i, s.Now()))
				if i == 5 {
					arm(2*time.Second, fire) // moves a pending firing
				}
			})
			if i == 3 {
				arm(time.Second, fire)
			}
		}
		s.Run()
		return log
	}
	want, got := run(false), run(true)
	if !slices.Equal(got, want) {
		t.Fatalf("Timer order differs from After:\n got %q\nwant %q", got, want)
	}

	s := New(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	if tm.Stop() {
		t.Fatal("a new timer is pending")
	}
	tm.Reset(time.Second)
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop did not cancel an armed timer exactly once")
	}
	s.Run()
	tm.Reset(3 * time.Second)
	s.Run()
	if fired != 1 || s.Now() != Time(3*time.Second) || tm.Stop() {
		t.Fatalf("fired %d times by %v, want once at 3s", fired, s.Now())
	}
}

// TestTickerTickAllocationFree: a ticker's tick re-arms its one event
// in place.
func TestTickerTickAllocationFree(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(time.Millisecond, func() { n++ })
	s.RunFor(10 * time.Millisecond)
	if allocs := testing.AllocsPerRun(1000, func() { s.RunFor(time.Millisecond) }); allocs != 0 {
		t.Fatalf("a ticker tick allocates %v times", allocs)
	}
	if n != 1011 {
		t.Fatalf("ticked %d times, want 1011", n)
	}
}

// TestTimerResetAllocationFree: re-arming a Timer, pending or fired,
// allocates nothing.
func TestTimerResetAllocationFree(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.Reset(time.Second)
	s.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Second)
		tm.Reset(2 * time.Second) // moves the pending firing
		s.Run()
	}); allocs != 0 {
		t.Fatalf("a timer re-arm allocates %v times", allocs)
	}
	if fired != 1002 {
		t.Fatalf("fired %d times, want 1002", fired)
	}
}
