// Package simkit provides a deterministic discrete-event simulation kernel.
//
// All higher-level substrates (radio medium, mesh protocol, monitoring
// agents, uplinks) are driven by a single Sim instance: they schedule
// callbacks at virtual times and the kernel executes them in timestamp
// order. Determinism is guaranteed by a strict (time, sequence) ordering
// and a seeded random source, so every simulation run is exactly
// reproducible from its seed.
//
// Events come in three forms. Do/DoAt schedule fire-and-forget callbacks
// whose Event objects the kernel recycles through a free list. At/After
// return a handle the caller may Stop at any later time. A Timer is a
// handle its owner keeps for its lifetime: one Event and one bound
// callback, re-armed in place by Reset, so a protocol timer that fires
// thousands of times allocates once. Ticker is built on Timer. Every
// arming — At, After, Do, DoAt or Reset — takes exactly one sequence
// number, so the (time, sequence) order of a run does not depend on
// which form scheduled an event.
package simkit

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual instant, expressed as an offset from the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as fractional seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the instant like a duration ("1m3.5s").
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Events are one-shot; recurring behaviour
// is built by rescheduling from inside the callback.
type Event struct {
	at      Time
	seq     uint64
	fn      func()
	index   int // heap index, -1 when not queued
	stopped bool
	sim     *Sim
	// recycled marks events created by Do/DoAt: no handle escapes to the
	// caller, so the object returns to the simulator's free list after it
	// fires. Handle-returning events (At/After) are never recycled — a
	// retained *Event must stay valid to Stop at any later time.
	recycled bool
}

// Stop cancels the event if it has not yet fired, removing it from the
// queue immediately so long runs with many cancelled timers do not
// accumulate dead entries in the heap. It reports whether the event was
// still pending. Stopping an already-fired or already-stopped event is a
// harmless no-op.
func (e *Event) Stop() bool {
	if e == nil || e.stopped || e.index < 0 {
		if e != nil {
			e.stopped = true
		}
		return false
	}
	e.stopped = true
	heap.Remove(&e.sim.queue, e.index)
	return true
}

// At reports the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Sim is a deterministic discrete-event simulator. It is not safe for
// concurrent use: the entire simulation runs on the caller's goroutine.
// Distinct Sim instances are fully independent, so independent runs may
// execute on separate goroutines concurrently.
type Sim struct {
	now    Time
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	seed   int64
	fired  uint64
	halted bool
	free   []*Event // recycled fire-and-forget events (Do/DoAt)
}

// maxFree bounds the free list so a burst of events does not pin memory
// for the rest of the run.
const maxFree = 4096

// New returns a simulator whose random source is seeded with seed.
// The same seed always yields the same execution.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Seed returns the seed the simulator was created with.
func (s *Sim) Seed() int64 { return s.seed }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsFired returns how many events have executed so far.
func (s *Sim) EventsFired() uint64 { return s.fired }

// Pending returns the number of events still queued.
func (s *Sim) Pending() int { return len(s.queue) }

// schedule queues fn at the absolute time at. Recycled events are drawn
// from the free list; handle events are always freshly allocated.
func (s *Sim) schedule(at Time, fn func(), recycled bool) *Event {
	if at < s.now {
		panic(fmt.Sprintf("simkit: scheduling at %v before now %v", at, s.now))
	}
	var e *Event
	if recycled && len(s.free) > 0 {
		e = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	} else {
		e = &Event{}
	}
	e.fn, e.index, e.sim, e.recycled = fn, -1, s, recycled
	s.arm(e, at)
	return e
}

// arm queues e, which must not be queued, at the absolute time at under
// the next sequence number.
func (s *Sim) arm(e *Event, at Time) {
	e.at, e.seq, e.stopped = at, s.seq, false
	s.seq++
	heap.Push(&s.queue, e)
}

// release returns a fired Do/DoAt event to the free list. Handle events
// are left to the garbage collector: the caller may still hold the
// pointer and Stop it later, so the object must never be reused.
func (s *Sim) release(e *Event) {
	if !e.recycled {
		return
	}
	e.fn = nil
	if len(s.free) < maxFree {
		s.free = append(s.free, e)
	}
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (before Now) panics: it would silently reorder causality.
func (s *Sim) At(at Time, fn func()) *Event {
	return s.schedule(at, fn, false)
}

// After schedules fn to run d after the current time. Negative d is
// clamped to zero, matching time.AfterFunc behaviour.
func (s *Sim) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// DoAt schedules fn at the absolute time at, fire-and-forget: no handle
// is returned, which lets the kernel recycle the event object through a
// free list instead of allocating one per callback. Use it for the vast
// majority of events that are never cancelled; use At/After when the
// caller needs Stop.
func (s *Sim) DoAt(at Time, fn func()) {
	s.schedule(at, fn, true)
}

// Do is DoAt(Now+d) with negative d clamped to zero.
func (s *Sim) Do(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.DoAt(s.now.Add(d), fn)
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned Ticker is stopped. The interval must be
// positive.
func (s *Sim) Every(interval Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("simkit: Every requires a positive interval")
	}
	t := &Ticker{interval: interval, fn: fn}
	t.timer = s.NewTimer(t.tick)
	t.timer.Reset(interval)
	return t
}

// NewTimer returns an unarmed Timer that runs fn each time it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{ev: Event{fn: fn, index: -1, sim: s}}
}

// Halt stops the run loop after the currently executing event returns.
// Queued events are retained, so a halted simulation can be resumed with
// another Run/RunUntil call.
func (s *Sim) Halt() { s.halted = true }

// step executes the earliest pending event. It reports false when the
// queue is empty.
func (s *Sim) step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*Event)
		if e.stopped {
			// Stop removes events eagerly, so this is only a safety net.
			s.release(e)
			continue
		}
		s.now = e.at
		s.fired++
		fn := e.fn
		// Recycle before running fn: nothing references a Do/DoAt event,
		// so fn may immediately reuse the object for a new schedule.
		s.release(e)
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called. It
// returns the final virtual time.
func (s *Sim) Run() Time {
	s.halted = false
	for !s.halted && s.step() {
	}
	return s.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if the queue drained earlier). Events
// scheduled beyond the deadline remain queued.
func (s *Sim) RunUntil(deadline Time) Time {
	s.halted = false
	for !s.halted {
		if len(s.queue) == 0 {
			break
		}
		next := s.peek()
		if next.at > deadline {
			break
		}
		s.step()
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// RunFor is RunUntil(Now+d).
func (s *Sim) RunFor(d Duration) Time { return s.RunUntil(s.now.Add(d)) }

func (s *Sim) peek() *Event {
	// Stop removes events from the heap eagerly, so the root (if any) is
	// always live.
	if len(s.queue) == 0 {
		return nil
	}
	return s.queue[0]
}

// Timer is a handle event owned for its lifetime: one Event and one
// bound callback, re-armed in place. Reset takes one sequence number,
// exactly as After does, so replacing a chain of After calls with one
// Timer leaves every run unchanged. A Timer is armed at most once at a
// time; re-arming a pending Timer moves it.
type Timer struct {
	ev Event
}

// Reset arms the timer to fire d after Now, with negative d clamped to
// zero, replacing any pending firing.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	s := t.ev.sim
	if t.ev.index >= 0 {
		heap.Remove(&s.queue, t.ev.index)
	}
	s.arm(&t.ev, s.now.Add(d))
}

// Stop cancels the pending firing, reporting whether there was one. The
// timer may be re-armed afterwards.
func (t *Timer) Stop() bool { return t.ev.Stop() }

// Ticker repeats a callback at a fixed virtual interval.
type Ticker struct {
	timer    *Timer
	interval Duration
	fn       func()
	stopped  bool
}

func (t *Ticker) tick() {
	t.fn()
	if !t.stopped { // fn may stop its own ticker
		t.timer.Reset(t.interval)
	}
}

// Stop cancels future ticks. It is idempotent.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac]. It is
// the standard way to desynchronise periodic protocol timers.
func Jitter(rng *rand.Rand, d Duration, frac float64) Duration {
	if frac <= 0 {
		return d
	}
	f := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}
