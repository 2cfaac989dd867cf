package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's own counters.
type procSnap struct {
	wall     time.Time
	cpu      time.Duration // user+sys from getrusage
	mallocs  uint64
	gcCycles uint32
	gcCPU    float64 // runtime/metrics GC CPU seconds (estimate)
	allCPU   float64 // runtime/metrics total CPU seconds (estimate)
}

func takeSnap() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s := procSnap{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = samples[1].Value.Float64()
	}
	return s
}

// phaseCost is the process cost of one timed phase per completed op.
func phaseCost(before, after procSnap, ops int, res *result) {
	n := max(ops, 1)
	cpuUS := float64(after.cpu-before.cpu) / float64(time.Microsecond) / float64(n)
	allocs := float64(after.mallocs-before.mallocs) / float64(n)
	res.e2e["cpu_us_per_op"] = metric{Value: cpuUS, Unit: "us", N: ops}
	res.e2e["allocs_per_op"] = metric{Value: allocs, Unit: "count", N: ops}
	if d := after.allCPU - before.allCPU; d > 0 {
		res.layer["runtime.gc_cpu_share"] = metric{Value: (after.gcCPU - before.gcCPU) / d, N: ops}
	}
	res.layer["runtime.gc_cycles"] = metric{Value: float64(after.gcCycles - before.gcCycles), N: 1}
}

// memoryMetrics records peak RSS and the live heap after a full GC. Call
// it while the measured system is still referenced.
func memoryMetrics(res *result) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.e2e["heap_live_mb"] = metric{Value: float64(ms.HeapAlloc) / 1e6, Unit: "MB", N: 1}
	res.e2e["rss_peak_mb"] = metric{Value: peakRSSMB(), Unit: "MB", N: 1}
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// sample is one open-loop operation, timed from when it was due.
type sample struct {
	due time.Time
	lag time.Duration // how late the generator issued it
	lat time.Duration // due time to completion
	err error
}

// openLoop issues op(i) at start + i/rate for every due time inside dur,
// from the calling goroutine: an operation that finds the previous one
// still running is issued late, and its latency still counts from its
// due time, so a stall shows up in every operation it delays.
func openLoop(rate float64, dur time.Duration, op func(i int, due time.Time) error) []sample {
	n := int(rate * dur.Seconds())
	out := make([]sample, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		issued := time.Now()
		err := op(i, due)
		out = append(out, sample{due: due, lag: issued.Sub(due), lat: time.Since(due), err: err})
	}
	return out
}

// achieved is the completion rate over the phase, from the first due
// time to the last completion.
func achieved(ss []sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	last := ss[len(ss)-1]
	return float64(len(ss)) / last.due.Add(last.lat).Sub(ss[0].due).Seconds()
}

// summarize splits samples into successful latencies and counts failures.
func summarize(ss []sample) (lats []float64, lags []float64, failed int) {
	for _, s := range ss {
		lags = append(lags, float64(s.lag)/float64(time.Millisecond))
		if s.err != nil {
			failed++
			continue
		}
		lats = append(lats, float64(s.lat)/float64(time.Millisecond))
	}
	return lats, lags, failed
}

// watcher is one SSE subscriber on the dashboard's /events stream. It
// records when each delta arrived and the ingest epoch it carried.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}
	gen    func() uint64 // alert generation, subtracted from the composite epoch

	mu     sync.Mutex
	events []sseEvent
	wake   chan struct{} // closed and replaced on every event
	err    error
}

type sseEvent struct {
	at    time.Time
	epoch uint64 // ingest epoch (composite epoch minus alert generation)
}

// startWatcher subscribes to url and returns once the greeting arrived
// (or fails after timeout).
func startWatcher(url string, gen func() uint64, timeout time.Duration) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), gen: gen, wake: make(chan struct{})}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, ResponseHeaderTimeout: timeout}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("sse subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("sse subscribe: %s", resp.Status)
	}
	go w.read(resp)
	if !w.waitCount(1, timeout) {
		w.stop()
		return nil, fmt.Errorf("sse: no greeting within %v", timeout)
	}
	return w, nil
}

func (w *watcher) read(resp *http.Response) {
	defer close(w.done)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
			return
		}
		payload, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		var d struct {
			Epoch uint64 `json:"epoch"`
		}
		if json.Unmarshal(payload, &d) != nil {
			continue
		}
		at := time.Now()
		g := w.gen()
		ev := sseEvent{at: at}
		if d.Epoch >= g {
			ev.epoch = d.Epoch - g
		}
		w.mu.Lock()
		w.events = append(w.events, ev)
		close(w.wake)
		w.wake = make(chan struct{})
		w.mu.Unlock()
	}
}

// waitFor blocks until pred holds over the events seen so far, or the
// timeout passes.
func (w *watcher) waitFor(pred func([]sseEvent) bool, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		ok := pred(w.events)
		wake := w.wake
		w.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-wake:
		case <-w.done:
			w.mu.Lock()
			ok := pred(w.events)
			w.mu.Unlock()
			return ok
		case <-deadline.C:
			return false
		}
	}
}

func (w *watcher) waitCount(n int, timeout time.Duration) bool {
	return w.waitFor(func(ev []sseEvent) bool { return len(ev) >= n }, timeout)
}

// waitEpoch waits for a delta whose ingest epoch reaches epoch.
func (w *watcher) waitEpoch(epoch uint64, timeout time.Duration) bool {
	return w.waitFor(func(ev []sseEvent) bool {
		return len(ev) > 0 && ev[len(ev)-1].epoch >= epoch
	}, timeout)
}

func (w *watcher) snapshot() []sseEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]sseEvent(nil), w.events...)
}

// stop hangs up and waits for the reader to exit.
func (w *watcher) stop() {
	w.cancel()
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
	}
}

// visible is one accepted batch: when it was due and the ingest epoch
// at which it became visible.
type visible struct {
	due   time.Time
	epoch uint64
}

// freshness matches each accepted batch to the first SSE delta whose
// epoch covers it and returns the due-to-delta times in ms, plus the
// number of batches no delta ever covered.
func freshness(batches []visible, events []sseEvent) (ms []float64, missing int) {
	j := 0
	for _, b := range batches {
		for j < len(events) && events[j].epoch < b.epoch {
			j++
		}
		if j == len(events) {
			missing++
			continue
		}
		ms = append(ms, float64(events[j].at.Sub(b.due))/float64(time.Millisecond))
	}
	return ms, missing
}
