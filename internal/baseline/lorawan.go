// Package baseline implements the comparator the paper's abstract sets
// the mesh against: the "typical LoRaWAN architecture [where] an end
// node periodically sends a LoRaWAN message to a gateway". Devices
// transmit unconfirmed uplinks straight to a single gateway using pure
// ALOHA (no carrier sense, no relaying), subject to the same radio
// medium and duty-cycle regulation as the mesh — so mesh-vs-star
// experiments differ only in the protocol.
package baseline

import (
	"fmt"
	"time"

	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

// UplinkFrame is the LoRaWAN-style frame a device sends. It is a
// distinct type from mesh.Packet, so star and mesh traffic never
// interoperate even on a shared medium.
type UplinkFrame struct {
	Device radio.ID
	Seq    uint32
	Bytes  int
}

// lorawanOverhead is the LoRaWAN MAC header+MIC size added to the
// application payload (MHDR 1 + FHDR 7 + FPort 1 + MIC 4).
const lorawanOverhead = 13

// DeviceConfig tunes one end device's reporting.
type DeviceConfig struct {
	// Interval is the mean uplink period.
	Interval time.Duration
	// JitterFrac randomises each period (desynchronises devices).
	JitterFrac float64
	// PayloadBytes is the application payload per uplink.
	PayloadBytes int
}

// DefaultDeviceConfig sends 20-byte readings every 5 minutes ±20%.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{Interval: 5 * time.Minute, JitterFrac: 0.2, PayloadBytes: 20}
}

// DeviceStats counts one device's outcomes.
type DeviceStats struct {
	Offered     uint64 // uplinks the application wanted to send
	Transmitted uint64 // frames actually put on the air
	DutyBlocked uint64 // uplinks skipped by the duty-cycle regulator
	Received    uint64 // frames the gateway decoded (filled by Network)
}

// PDR returns the device's delivery ratio (received/offered).
func (s DeviceStats) PDR() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Offered)
}

type device struct {
	rad     *radio.Radio
	cfg     DeviceConfig
	stats   DeviceStats
	seq     uint32
	stopped bool
}

// Network is a single-gateway LoRaWAN-style star network.
type Network struct {
	sim     *simkit.Sim
	gateway *radio.Radio
	devices map[radio.ID]*device
	running bool
}

// New builds a star network around an already-attached gateway radio.
func New(sim *simkit.Sim, gateway *radio.Radio) *Network {
	n := &Network{sim: sim, gateway: gateway, devices: make(map[radio.ID]*device)}
	gateway.SetHandler(n.onGatewayFrame)
	return n
}

// Gateway returns the gateway radio.
func (n *Network) Gateway() *radio.Radio { return n.gateway }

// AddDevice registers an end device on its (already attached) radio.
func (n *Network) AddDevice(rad *radio.Radio, cfg DeviceConfig) error {
	if rad.ID() == n.gateway.ID() {
		return fmt.Errorf("baseline: device id %v collides with the gateway", rad.ID())
	}
	if _, dup := n.devices[rad.ID()]; dup {
		return fmt.Errorf("baseline: duplicate device %v", rad.ID())
	}
	if cfg.Interval <= 0 {
		cfg = DefaultDeviceConfig()
	}
	n.devices[rad.ID()] = &device{rad: rad, cfg: cfg}
	return nil
}

// Start begins periodic uplinks; each device's first transmission is
// randomly placed inside one interval.
func (n *Network) Start() {
	if n.running {
		return
	}
	n.running = true
	for _, d := range n.devices {
		first := time.Duration(n.sim.Rand().Float64() * float64(d.cfg.Interval))
		n.sim.Do(first, func() { n.fire(d) })
	}
}

// Stop halts all devices.
func (n *Network) Stop() {
	n.running = false
	for _, d := range n.devices {
		d.stopped = true
	}
}

func (n *Network) fire(d *device) {
	if d.stopped || !n.running {
		return
	}
	d.stats.Offered++
	d.seq++
	frame := UplinkFrame{
		Device: d.rad.ID(),
		Seq:    d.seq,
		Bytes:  lorawanOverhead + d.cfg.PayloadBytes,
	}
	// Pure ALOHA: transmit immediately unless the regulator forbids it.
	if _, err := d.rad.Transmit(radio.Frame{Payload: frame, Bytes: frame.Bytes}); err != nil {
		d.stats.DutyBlocked++
	} else {
		d.stats.Transmitted++
	}
	next := simkit.Jitter(n.sim.Rand(), d.cfg.Interval, d.cfg.JitterFrac)
	n.sim.Do(next, func() { n.fire(d) })
}

func (n *Network) onGatewayFrame(f radio.Frame, _ radio.RxInfo) {
	frame, ok := f.Payload.(UplinkFrame)
	if !ok {
		return
	}
	if d, ok := n.devices[frame.Device]; ok {
		d.stats.Received++
	}
}

// DeviceStats returns the stats of device id.
func (n *Network) DeviceStats(id radio.ID) (DeviceStats, bool) {
	d, ok := n.devices[id]
	if !ok {
		return DeviceStats{}, false
	}
	return d.stats, true
}

// Totals aggregates all device stats.
func (n *Network) Totals() DeviceStats {
	var t DeviceStats
	for _, d := range n.devices {
		t.Offered += d.stats.Offered
		t.Transmitted += d.stats.Transmitted
		t.DutyBlocked += d.stats.DutyBlocked
		t.Received += d.stats.Received
	}
	return t
}
