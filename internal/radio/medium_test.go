package radio

import (
	"math"
	"testing"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/simkit"
)

// quietConfig removes all randomness so outcomes are exact.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.Channel = phy.FreeSpaceChannel()
	return cfg
}

func newPair(t *testing.T, sim *simkit.Sim, cfg Config, distance float64) (*Medium, *Radio, *Radio) {
	t.Helper()
	m := NewMedium(sim, cfg)
	a, err := m.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AttachRadio(2, phy.Point{X: distance}, phy.DefaultParams(), phy.Unregulated())
	if err != nil {
		t.Fatal(err)
	}
	return m, a, b
}

func TestDeliveryInRange(t *testing.T) {
	sim := simkit.New(1)
	m, a, b := newPair(t, sim, quietConfig(), 100)
	var got []RxInfo
	b.SetHandler(func(f Frame, info RxInfo) {
		if f.Payload.(string) != "hello" {
			t.Errorf("payload = %v", f.Payload)
		}
		got = append(got, info)
	})
	airtime, err := a.Transmit(Frame{Payload: "hello", Bytes: 20})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(got) != 1 {
		t.Fatalf("receptions = %d, want 1", len(got))
	}
	if got[0].From != 1 {
		t.Fatalf("From = %v, want N0001", got[0].From)
	}
	if got[0].At != simkit.Time(airtime) {
		t.Fatalf("delivery at %v, want end of frame %v", got[0].At, airtime)
	}
	if got[0].Airtime != airtime {
		t.Fatalf("Airtime = %v, want %v", got[0].Airtime, airtime)
	}
	st := m.Stats()
	if st.Delivered != 1 || st.TxFrames != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoDeliveryFarOutOfRange(t *testing.T) {
	sim := simkit.New(1)
	cfg := quietConfig()
	r := cfg.Channel.MaxRangeM(phy.DefaultParams())
	m, a, b := newPair(t, sim, cfg, r*10)
	received := 0
	b.SetHandler(func(Frame, RxInfo) { received++ })
	if _, err := a.Transmit(Frame{Bytes: 20}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if received != 0 {
		t.Fatal("frame delivered far beyond max range")
	}
	// A receiver this far out is beyond the delivery cutoff radius, so
	// the spatial index never even schedules a reception decision.
	if st := m.Stats(); st.DeliveryAttempts != 0 || st.BelowSensitivity != 0 {
		t.Fatalf("stats = %+v, want no delivery attempt scheduled", st)
	}
}

func TestRadioBusyDuringTransmit(t *testing.T) {
	sim := simkit.New(1)
	_, a, _ := newPair(t, sim, quietConfig(), 100)
	if _, err := a.Transmit(Frame{Bytes: 200}); err != nil {
		t.Fatal(err)
	}
	if !a.Busy() {
		t.Fatal("radio not busy mid-frame")
	}
	if _, err := a.Transmit(Frame{Bytes: 10}); err != ErrRadioBusy {
		t.Fatalf("err = %v, want ErrRadioBusy", err)
	}
	sim.Run()
	if a.Busy() {
		t.Fatal("radio still busy after frame end")
	}
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatalf("transmit after frame end: %v", err)
	}
}

func TestDutyCycleBlocksAndCounts(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, quietConfig())
	a, err := m.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.EU868())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Transmit(Frame{Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	sim.Run() // frame completes; silence window applies
	if _, err := a.Transmit(Frame{Bytes: 50}); err != ErrDutyCycle {
		t.Fatalf("err = %v, want ErrDutyCycle", err)
	}
	if m.Stats().DutyCycleBlocked != 1 {
		t.Fatalf("DutyCycleBlocked = %d, want 1", m.Stats().DutyCycleBlocked)
	}
	if a.DutyCycleWait() <= 0 {
		t.Fatal("DutyCycleWait must be positive inside silence window")
	}
	sim.RunFor(a.DutyCycleWait())
	if _, err := a.Transmit(Frame{Bytes: 50}); err != nil {
		t.Fatalf("transmit after silence window: %v", err)
	}
}

func TestDownRadioNeitherSendsNorReceives(t *testing.T) {
	sim := simkit.New(1)
	_, a, b := newPair(t, sim, quietConfig(), 100)
	b.SetDown(true)
	received := 0
	b.SetHandler(func(Frame, RxInfo) { received++ })
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if received != 0 {
		t.Fatal("down radio received a frame")
	}
	if _, err := b.Transmit(Frame{Bytes: 10}); err != ErrRadioDown {
		t.Fatalf("err = %v, want ErrRadioDown", err)
	}
	b.SetDown(false)
	if _, err := b.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatalf("restored radio cannot transmit: %v", err)
	}
}

func TestCollisionBothLostWithoutCapture(t *testing.T) {
	sim := simkit.New(1)
	cfg := quietConfig()
	cfg.CaptureEnabled = false
	m := NewMedium(sim, cfg)
	// Two senders equidistant from the receiver, overlapping in time.
	tx1, _ := m.AttachRadio(1, phy.Point{X: -100}, phy.DefaultParams(), phy.Unregulated())
	tx2, _ := m.AttachRadio(2, phy.Point{X: 100}, phy.DefaultParams(), phy.Unregulated())
	rx, _ := m.AttachRadio(3, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	received := 0
	rx.SetHandler(func(Frame, RxInfo) { received++ })
	if _, err := tx1.Transmit(Frame{Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	// Start the second frame halfway through the first.
	sim.After(phy.Airtime(phy.DefaultParams(), 50)/2, func() {
		if _, err := tx2.Transmit(Frame{Bytes: 50}); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if received != 0 {
		t.Fatalf("received = %d, want 0 (capture disabled)", received)
	}
	if m.Stats().Collided != 2 {
		t.Fatalf("Collided = %d, want 2", m.Stats().Collided)
	}
}

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	sim := simkit.New(1)
	cfg := quietConfig()
	m := NewMedium(sim, cfg)
	// tx1 close to the receiver, tx2 much farther: tx1 captures.
	tx1, _ := m.AttachRadio(1, phy.Point{X: 50}, phy.DefaultParams(), phy.Unregulated())
	tx2, _ := m.AttachRadio(2, phy.Point{X: 2000}, phy.DefaultParams(), phy.Unregulated())
	rx, _ := m.AttachRadio(3, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	var from []ID
	rx.SetHandler(func(_ Frame, info RxInfo) { from = append(from, info.From) })
	if _, err := tx1.Transmit(Frame{Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	sim.After(time.Millisecond, func() {
		if _, err := tx2.Transmit(Frame{Bytes: 50}); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if len(from) != 1 || from[0] != 1 {
		t.Fatalf("captured receptions = %v, want [N0001]", from)
	}
}

func TestOrthogonalSFsDoNotCollide(t *testing.T) {
	sim := simkit.New(1)
	cfg := quietConfig()
	cfg.CaptureEnabled = false // make any collision fatal
	m := NewMedium(sim, cfg)
	p7 := phy.DefaultParams()
	p9 := phy.DefaultParams()
	p9.SF = phy.SF9
	tx1, _ := m.AttachRadio(1, phy.Point{X: -100}, p7, phy.Unregulated())
	tx2, _ := m.AttachRadio(2, phy.Point{X: 100}, p9, phy.Unregulated())
	rx, _ := m.AttachRadio(3, phy.Point{}, p7, phy.Unregulated())
	received := 0
	rx.SetHandler(func(Frame, RxInfo) { received++ })
	if _, err := tx1.Transmit(Frame{Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Transmit(Frame{Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if received != 1 {
		t.Fatalf("received = %d, want 1 (SF7 frame; SF9 is orthogonal)", received)
	}
}

func TestHalfDuplexReceiverMissesWhileTransmitting(t *testing.T) {
	sim := simkit.New(1)
	m, a, b := newPair(t, sim, quietConfig(), 100)
	received := 0
	b.SetHandler(func(Frame, RxInfo) { received++ })
	// b starts a long transmission; a sends during it.
	if _, err := b.Transmit(Frame{Bytes: 200}); err != nil {
		t.Fatal(err)
	}
	sim.After(time.Millisecond, func() {
		if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if received != 0 {
		t.Fatal("half-duplex receiver decoded a frame while transmitting")
	}
	if m.Stats().HalfDuplexMiss != 1 {
		t.Fatalf("HalfDuplexMiss = %d, want 1", m.Stats().HalfDuplexMiss)
	}
	if b.Counters().MissHalfDuplex != 1 {
		t.Fatalf("per-radio MissHalfDuplex = %d, want 1", b.Counters().MissHalfDuplex)
	}
}

func TestBusyAtCarrierSense(t *testing.T) {
	sim := simkit.New(1)
	m, a, b := newPair(t, sim, quietConfig(), 100)
	if m.BusyAt(b) {
		t.Fatal("idle medium sensed busy")
	}
	if _, err := a.Transmit(Frame{Bytes: 200}); err != nil {
		t.Fatal(err)
	}
	// Mid-frame the channel must read busy at b and at a (own tx).
	sim.After(time.Millisecond, func() {
		if b.ChannelClear() {
			t.Error("b sensed clear during a's transmission")
		}
		if a.ChannelClear() {
			t.Error("a sensed clear during own transmission")
		}
	})
	sim.Run()
	if !b.ChannelClear() {
		t.Fatal("channel still busy after frame end")
	}
}

func TestAttachValidation(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, quietConfig())
	if _, err := m.AttachRadio(Broadcast, phy.Point{}, phy.DefaultParams(), phy.EU868()); err == nil {
		t.Fatal("broadcast id accepted")
	}
	if _, err := m.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.EU868()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.EU868()); err == nil {
		t.Fatal("duplicate id accepted")
	}
	bad := phy.DefaultParams()
	bad.SF = 42
	if _, err := m.AttachRadio(2, phy.Point{}, bad, phy.EU868()); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestMeanLinkSymmetricAndShadowStable(t *testing.T) {
	sim := simkit.New(7)
	cfg := DefaultConfig() // shadowing on
	m := NewMedium(sim, cfg)
	m.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.EU868())
	m.AttachRadio(2, phy.Point{X: 300}, phy.DefaultParams(), phy.EU868())
	ab1, err := m.MeanLink(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := m.MeanLink(2, 1)
	if math.Abs(ab1.RSSIdBm-ba.RSSIdBm) > 1e-9 {
		t.Fatalf("MeanLink not symmetric: %v vs %v", ab1.RSSIdBm, ba.RSSIdBm)
	}
	ab2, _ := m.MeanLink(1, 2)
	if ab1 != ab2 {
		t.Fatal("per-pair shadowing not stable across calls")
	}
	if _, err := m.MeanLink(1, 99); err == nil {
		t.Fatal("unknown pair accepted")
	}
}

func TestPerRadioCounters(t *testing.T) {
	sim := simkit.New(1)
	_, a, b := newPair(t, sim, quietConfig(), 100)
	b.SetHandler(func(Frame, RxInfo) {})
	a.Transmit(Frame{Bytes: 10})
	sim.Run()
	if c := a.Counters(); c.Tx != 1 || c.TxAirtime == 0 {
		t.Fatalf("a counters = %+v", c)
	}
	if c := b.Counters(); c.Rx != 1 {
		t.Fatalf("b counters = %+v", c)
	}
}

func TestUnregisteredRadioErrors(t *testing.T) {
	var r Radio
	if _, err := r.Transmit(Frame{Bytes: 1}); err != ErrUnregistered {
		t.Fatalf("err = %v, want ErrUnregistered", err)
	}
}

func TestMultiSFGatewayDecodesAllSFs(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, quietConfig())
	gw, _ := m.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	gw.SetMultiSF(true)
	received := map[phy.SpreadingFactor]int{}
	gw.SetHandler(func(f Frame, _ RxInfo) {
		received[f.Payload.(phy.SpreadingFactor)]++
	})
	for i, sf := range []phy.SpreadingFactor{phy.SF7, phy.SF9, phy.SF12} {
		p := phy.DefaultParams()
		p.SF = sf
		dev, err := m.AttachRadio(ID(i+2), phy.Point{X: 100}, p, phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Transmit(Frame{Payload: sf, Bytes: 10}); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	for _, sf := range []phy.SpreadingFactor{phy.SF7, phy.SF9, phy.SF12} {
		if received[sf] != 1 {
			t.Fatalf("gateway received %d frames at %v, want 1 (%v)", received[sf], sf, received)
		}
	}
}

func TestDwellTimeLimitEnforced(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, quietConfig())
	// SF10 with a max-size frame far exceeds the 400ms US915 dwell.
	slow := phy.DefaultParams()
	slow.SF = phy.SF10
	a, err := m.AttachRadio(1, phy.Point{}, slow, phy.US915())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Transmit(Frame{Bytes: 200}); err != ErrDwellExceeded {
		t.Fatalf("err = %v, want ErrDwellExceeded", err)
	}
	if m.Stats().DwellBlocked != 1 {
		t.Fatalf("DwellBlocked = %d, want 1", m.Stats().DwellBlocked)
	}
	// A short frame fits inside the dwell limit.
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatalf("short frame rejected: %v", err)
	}
	// EU868 has no dwell limit: the long frame is legal there.
	b, _ := m.AttachRadio(2, phy.Point{}, slow, phy.EU868())
	if _, err := b.Transmit(Frame{Bytes: 200}); err != nil {
		t.Fatalf("EU868 long frame rejected: %v", err)
	}
}

// Property: per-receiver outcomes are conserved — every delivery
// attempt at an up, decodable receiver ends in exactly one bucket.
func TestReceptionOutcomeConservation(t *testing.T) {
	sim := simkit.New(99)
	cfg := DefaultConfig() // logistic delivery, shadowing on
	m := NewMedium(sim, cfg)
	n := 6
	for i := 0; i < n; i++ {
		r, err := m.AttachRadio(ID(i+1), phy.Point{X: float64(i) * 1500}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		r.SetHandler(func(Frame, RxInfo) {})
	}
	// Random chatter for a while.
	for i := 0; i < 200; i++ {
		idx := ID(sim.Rand().Intn(n) + 1)
		at := simkit.Time(i) * simkit.Time(137*time.Millisecond)
		sim.At(at, func() {
			m.Radio(idx).Transmit(Frame{Bytes: 20}) //nolint:errcheck
		})
	}
	sim.Run()
	st := m.Stats()
	accounted := st.Delivered + st.BelowSensitivity + st.Collided + st.HalfDuplexMiss
	if accounted != st.DeliveryAttempts {
		t.Fatalf("outcomes not conserved: %d attempts, %d accounted (%+v)",
			st.DeliveryAttempts, accounted, st)
	}
	// The index can only shrink the candidate set relative to all-pairs.
	if max := st.TxFrames * uint64(n-1); st.DeliveryAttempts > max {
		t.Fatalf("DeliveryAttempts = %d beyond all-pairs bound %d", st.DeliveryAttempts, max)
	}
}

// TestTransmitAllocationFree pins that a steady-state frame allocates
// nothing once the transmission pool and the link tables are warm:
// transmit re-arms the pooled transmission's bound timer, and the
// end-of-air walk reads the sender's link table, delivering to some
// receivers and colliding at others.
func TestTransmitAllocationFree(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, DefaultConfig())
	var rads []*Radio
	for i := 0; i < 8; i++ {
		r, err := m.AttachRadio(ID(i+1), phy.Point{X: float64(i) * 400}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		r.SetHandler(func(Frame, RxInfo) {})
		rads = append(rads, r)
	}
	frame := func() {
		// Two overlapping frames: both walk interferer lists.
		if _, err := rads[0].Transmit(Frame{Bytes: 20}); err != nil {
			t.Fatal(err)
		}
		if _, err := rads[7].Transmit(Frame{Bytes: 30}); err != nil {
			t.Fatal(err)
		}
		if !m.BusyAt(rads[3]) {
			t.Fatal("channel idle mid-frame")
		}
		sim.Run()
	}
	for i := 0; i < 4; i++ {
		frame()
	}
	before := m.Stats()
	if allocs := testing.AllocsPerRun(200, frame); allocs != 0 {
		t.Fatalf("a steady-state frame allocates %v times, want 0", allocs)
	}
	if st := m.Stats(); st.Delivered == before.Delivered || st.Collided == before.Collided {
		t.Fatalf("frames neither delivered nor collided: %+v", st)
	}
}

// TestHandlerMoveDuringDelivery pins the end-of-air walk against a
// receive handler that moves the sender: receivers decided after the
// move see the sender's new position, as a medium without link tables
// computes it, not the path loss cached before.
func TestHandlerMoveDuringDelivery(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, quietConfig())
	var rads []*Radio
	for i := 0; i < 4; i++ {
		r, err := m.AttachRadio(ID(i+1), phy.Point{X: float64(i) * 100}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		r.SetHandler(func(Frame, RxInfo) {})
		rads = append(rads, r)
	}
	// Two frames give the sender a filled link table.
	for i := 0; i < 2; i++ {
		if _, err := rads[0].Transmit(Frame{Bytes: 10}); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	if rads[0].links.pl == nil {
		t.Fatal("no link table after two frames")
	}
	// The candidates were collected before the walk; from this far away
	// every later one fails the cutoff.
	far := rads[0].candidateM * 10
	rads[1].SetHandler(func(Frame, RxInfo) { rads[0].SetPosition(phy.Point{X: -far}) })
	if _, err := rads[0].Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got := rads[1].Counters().Rx; got != 3 {
		t.Fatalf("first receiver got %d frames, want 3", got)
	}
	for _, r := range rads[2:] {
		if c := r.Counters(); c.Rx != 2 || c.MissWeak != 1 {
			t.Fatalf("%v decided after the sender moved away: %+v, want two receptions and one weak miss", r.ID(), c)
		}
	}
}

// TestHandlerMoveKeepsNoStaleEntry: a receive handler moves a later
// candidate far away mid-walk and a second move brings it back beside
// the sender; the sender's next frame must reach it at its new
// position, not with a path loss cached from where it was.
func TestHandlerMoveKeepsNoStaleEntry(t *testing.T) {
	sim := simkit.New(1)
	m := NewMedium(sim, quietConfig())
	var rads []*Radio
	for i := 0; i < 3; i++ {
		r, err := m.AttachRadio(ID(i+1), phy.Point{X: float64(i) * 100}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		r.SetHandler(func(Frame, RxInfo) {})
		rads = append(rads, r)
	}
	a, b, x := rads[0], rads[1], rads[2]
	far := a.candidateM * 10
	b.SetHandler(func(Frame, RxInfo) { x.SetPosition(phy.Point{X: far}) })
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if c := x.Counters(); c.Rx != 0 || c.MissWeak != 1 {
		t.Fatalf("receiver moved away mid-walk: %+v, want one weak miss", c)
	}
	b.SetHandler(func(Frame, RxInfo) {})
	x.SetPosition(phy.Point{X: 200})
	if _, err := a.Transmit(Frame{Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if c := x.Counters(); c.Rx != 1 {
		t.Fatalf("receiver moved back beside the sender: %+v, want one reception", c)
	}
}
