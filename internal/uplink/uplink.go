// Package uplink models the out-of-band channel the monitoring client
// uses to reach the server. In the paper this is the node's WiFi/Internet
// connection — distinct from the LoRa mesh itself.
//
// Two implementations are provided: Sim, a simkit-driven channel with
// configurable loss, latency, bandwidth and outage windows (what the
// experiments sweep), and HTTP, a real net/http client for running
// against a live collector.
package uplink

import (
	"errors"
	"time"

	"lorameshmon/internal/simkit"
	"lorameshmon/internal/wire"
)

// Errors reported through the Send callback.
var (
	ErrLost     = errors.New("uplink: batch lost in transit")
	ErrDown     = errors.New("uplink: link down")
	ErrRejected = errors.New("uplink: server rejected batch")
)

// Uplink delivers batches to the collector. Send invokes done exactly
// once with the outcome; a nil error means the server accepted the batch.
type Uplink interface {
	Send(batch wire.Batch, done func(err error))
}

// Sink is the receiving side (the collector's ingest path).
type Sink interface {
	Ingest(batch wire.Batch) error
}

// Stats counts uplink outcomes.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Lost      uint64
	Rejected  uint64
	BytesSent uint64
}

// SimConfig tunes the simulated uplink.
type SimConfig struct {
	// LossRate is the probability a batch vanishes in transit.
	LossRate float64
	// LatencyMin/LatencyMax bound the uniform one-way latency.
	LatencyMin time.Duration
	LatencyMax time.Duration
	// BandwidthBps adds a serialisation delay of size/bandwidth; zero
	// means infinite bandwidth.
	BandwidthBps float64
	// BinaryCodec sizes batches with the compact binary format instead
	// of JSON.
	BinaryCodec bool
}

// DefaultSimConfig is a healthy home-router uplink: no loss, 20-80 ms
// latency, 1 Mbit/s.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		LossRate:     0,
		LatencyMin:   20 * time.Millisecond,
		LatencyMax:   80 * time.Millisecond,
		BandwidthBps: 1_000_000 / 8,
	}
}

// Sim is the simulated uplink from one node to the collector.
type Sim struct {
	sim   *simkit.Sim
	cfg   SimConfig
	sink  Sink
	down  bool
	stats Stats
	// free holds landed flights for reuse, so a steady stream of batches
	// allocates no per-batch callback.
	free []*flight
}

// flight is one batch in transit: its outcome fires on the flight's
// own bound Timer when it lands.
type flight struct {
	u     *Sim
	timer *simkit.Timer
	batch wire.Batch
	done  func(error)
	// err is an outcome decided at Send (loss, outage, sizing error);
	// nil means the batch reaches the sink if the link is up on arrival.
	err error
}

var _ Uplink = (*Sim)(nil)

// NewSim builds a simulated uplink that feeds sink.
func NewSim(sim *simkit.Sim, sink Sink, cfg SimConfig) *Sim {
	if cfg.LatencyMax < cfg.LatencyMin {
		cfg.LatencyMax = cfg.LatencyMin
	}
	return &Sim{sim: sim, cfg: cfg, sink: sink}
}

// Stats returns a snapshot of the uplink's counters.
func (u *Sim) Stats() Stats { return u.stats }

// SetDown forces the link down (true) or restores it (false); used by
// outage schedules.
func (u *Sim) SetDown(down bool) { u.down = down }

// Down reports whether the link is in a forced outage.
func (u *Sim) Down() bool { return u.down }

// ScheduleOutage takes the link down at start for the given duration.
func (u *Sim) ScheduleOutage(start simkit.Time, d time.Duration) {
	u.sim.DoAt(start, func() { u.SetDown(true) })
	u.sim.DoAt(start.Add(d), func() { u.SetDown(false) })
}

// Send implements Uplink. The outcome callback fires after the modelled
// latency: immediately-visible failure for outages, post-latency loss
// (like a timed-out HTTP request), or delivery plus acknowledgement.
func (u *Sim) Send(batch wire.Batch, done func(err error)) {
	u.stats.Sent++
	sizeOf := wire.EncodedSize
	if u.cfg.BinaryCodec {
		sizeOf = wire.EncodedSizeBinary
	}
	size, err := sizeOf(batch)
	if err != nil {
		u.stats.Rejected++
		u.launch(0, wire.Batch{}, done, err)
		return
	}
	if u.down {
		// The batch never reaches the wire during an outage, so it must
		// not count toward BytesSent (the bandwidth-cost metric).
		u.stats.Lost++
		u.launch(0, wire.Batch{}, done, ErrDown)
		return
	}
	u.stats.BytesSent += uint64(size)
	delay := u.latency()
	if u.cfg.BandwidthBps > 0 {
		delay += time.Duration(float64(size) / u.cfg.BandwidthBps * float64(time.Second))
	}
	if u.cfg.LossRate > 0 && u.sim.Rand().Float64() < u.cfg.LossRate {
		u.stats.Lost++
		// The sender learns about the loss only after a timeout-like
		// delay, as a real HTTP client would.
		u.launch(delay+u.cfg.LatencyMax, wire.Batch{}, done, ErrLost)
		return
	}
	u.launch(delay, batch, done, nil)
}

func (u *Sim) latency() time.Duration {
	span := u.cfg.LatencyMax - u.cfg.LatencyMin
	if span <= 0 {
		return u.cfg.LatencyMin
	}
	return u.cfg.LatencyMin + time.Duration(u.sim.Rand().Int63n(int64(span)+1))
}

// launch arms a flight that lands after d. Even a failure decided now
// lands at least one event later, so Send never calls done
// synchronously (callers hold state across the call).
func (u *Sim) launch(d time.Duration, batch wire.Batch, done func(error), err error) {
	var f *flight
	if n := len(u.free); n > 0 {
		f, u.free = u.free[n-1], u.free[:n-1]
	} else {
		f = &flight{u: u}
		f.timer = u.sim.NewTimer(f.land)
	}
	f.batch, f.done, f.err = batch, done, err
	f.timer.Reset(d)
}

// land reports the flight's outcome. The flight is back in the pool,
// released of its batch and callback, before done runs, so done may
// Send again.
func (f *flight) land() {
	u, batch, done, err := f.u, f.batch, f.done, f.err
	f.batch, f.done, f.err = wire.Batch{}, nil, nil
	u.free = append(u.free, f)
	if err == nil {
		switch {
		case u.down: // the outage began while in flight
			u.stats.Lost++
			err = ErrDown
		case u.sink.Ingest(batch) != nil:
			u.stats.Rejected++
			err = ErrRejected
		default:
			u.stats.Delivered++
		}
	}
	done(err)
}
