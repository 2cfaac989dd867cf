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
		u.finish(done, err)
		return
	}
	if u.down {
		// The batch never reaches the wire during an outage, so it must
		// not count toward BytesSent (the bandwidth-cost metric).
		u.stats.Lost++
		u.finish(done, ErrDown)
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
		u.sim.Do(delay+u.cfg.LatencyMax, func() { done(ErrLost) })
		return
	}
	u.sim.Do(delay, func() {
		if u.down {
			// Outage began while in flight.
			u.stats.Lost++
			done(ErrDown)
			return
		}
		if err := u.sink.Ingest(batch); err != nil {
			u.stats.Rejected++
			done(ErrRejected)
			return
		}
		u.stats.Delivered++
		done(nil)
	})
}

func (u *Sim) latency() time.Duration {
	span := u.cfg.LatencyMax - u.cfg.LatencyMin
	if span <= 0 {
		return u.cfg.LatencyMin
	}
	return u.cfg.LatencyMin + time.Duration(u.sim.Rand().Int63n(int64(span)+1))
}

// finish defers the callback one event so Send never calls done
// synchronously (callers hold state across the call).
func (u *Sim) finish(done func(error), err error) {
	u.sim.Do(0, func() { done(err) })
}
