// Package alert evaluates alerting rules over the collector's state —
// the operational half of the paper's "network administrators can
// further analyse the mesh": node-down detection from missed heartbeats,
// duty-cycle pressure warnings and upload-loss warnings.
//
// The engine is pull-based: call Check with the current reference time
// (simulated seconds, or wall seconds for a live collector) on whatever
// cadence suits the deployment.
package alert

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/wire"
)

// Kind classifies an alert.
type Kind string

// Alert kinds.
const (
	KindNodeDown   Kind = "node-down"
	KindDutyCycle  Kind = "duty-cycle-pressure"
	KindUploadLoss Kind = "upload-loss"
	KindLowBattery Kind = "low-battery"
)

// Severity orders alerts for display.
type Severity int

// Severities.
const (
	SeverityWarning Severity = iota + 1
	SeverityCritical
)

func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Alert is one detected condition.
type Alert struct {
	Kind     Kind
	Node     wire.NodeID
	Severity Severity
	// FiredAt is the reference time the condition was first detected.
	FiredAt float64
	// ResolvedAt is set when the condition cleared (history entries).
	ResolvedAt float64
	Resolved   bool
	Message    string
}

// Config tunes the rules.
type Config struct {
	// HeartbeatTimeoutS fires node-down when a node's newest heartbeat
	// is older than this many seconds. The paper's client heartbeats
	// every report interval, so 3 missed reports is the natural default.
	HeartbeatTimeoutS float64
	// DutyWarnFraction fires duty-cycle pressure when a node's reported
	// utilisation exceeds this fraction of the regulatory limit.
	DutyWarnFraction float64
	// DutyLimit is the regulatory duty cycle (EU868: 0.01).
	DutyLimit float64
	// LossWarnBatches fires upload-loss when a node's lost-batch count
	// grows past this threshold.
	LossWarnBatches uint64
	// LowBatteryFrac fires low-battery when a node's reported state of
	// charge drops to or below this fraction. It sits well above the
	// firmware's shutdown threshold so the warning lands while the node
	// is still talking — the point of battery monitoring is to flag the
	// death before the silence. Nodes that report no energy fields
	// (mains powered) never trigger it.
	LowBatteryFrac float64
}

// DefaultConfig matches the default agent (30 s heartbeats): down after
// 90 s of silence, duty warning at 80% of the EU868 limit, upload-loss
// warning after 3 lost batches, low-battery warning at 20% charge.
func DefaultConfig() Config {
	return Config{
		HeartbeatTimeoutS: 90,
		DutyWarnFraction:  0.8,
		DutyLimit:         0.01,
		LossWarnBatches:   3,
		LowBatteryFrac:    0.2,
	}
}

// HistoryLen bounds the resolved-alert history: the engine keeps the
// newest HistoryLen resolutions, so History and the alerts page cost
// the same after months of uptime as after an hour.
const HistoryLen = 256

type alertKey struct {
	kind Kind
	node wire.NodeID
}

// engineInstruments are the engine's self-observability handles.
type engineInstruments struct {
	evaluations  *metrics.Counter
	firings      *metrics.CounterVec // kind
	resolved     *metrics.CounterVec // kind
	active       *metrics.Gauge
	checkLatency *metrics.Histogram
}

// Engine evaluates rules and tracks alert lifecycles. It reads the
// collector through the View interface only, so any View implementation
// can back it.
type Engine struct {
	coll collector.View
	cfg  Config
	// mu guards the alert state: Check mutates it from the evaluation
	// goroutine while dashboard requests and the SSE hub read Active,
	// History and Generation concurrently.
	mu      sync.Mutex
	active  map[alertKey]*Alert
	history []Alert // the newest HistoryLen resolutions, oldest first
	// gen counts alert state transitions (firings + resolutions) — the
	// alerts panel's invalidation clock, paired with the collector's
	// ingest epoch. Check runs asynchronously after ingest, so a cached
	// alerts panel keyed on the ingest epoch alone could go stale
	// between the epoch bump and the evaluation pass that fires on it.
	gen uint64
	// lossSeen remembers the lost-batch count already alerted on so the
	// rule re-fires only when losses grow.
	lossSeen map[wire.NodeID]uint64
	inst     *engineInstruments // nil until Instrument
}

// Instrument registers the engine's self-observability metrics into
// reg: rule-evaluation and firing counters, an active-alert gauge and a
// check-latency histogram. Call once at wiring time.
func (e *Engine) Instrument(reg *metrics.Registry) {
	e.inst = &engineInstruments{
		evaluations: reg.NewCounter("meshmon_alert_evaluations_total",
			"Alert rule evaluation passes."),
		firings: reg.NewCounterVec("meshmon_alert_firings_total",
			"Alerts fired, by kind.", "kind"),
		resolved: reg.NewCounterVec("meshmon_alert_resolved_total",
			"Alerts resolved, by kind.", "kind"),
		active: reg.NewGauge("meshmon_alert_active",
			"Alerts currently firing."),
		checkLatency: reg.NewHistogram("meshmon_alert_check_seconds",
			"Latency of one full rule evaluation pass.", nil),
	}
}

// NewEngine builds an engine reading through coll.
func NewEngine(coll collector.View, cfg Config) *Engine {
	d := DefaultConfig()
	if cfg.HeartbeatTimeoutS <= 0 {
		cfg.HeartbeatTimeoutS = d.HeartbeatTimeoutS
	}
	if cfg.DutyWarnFraction <= 0 || cfg.DutyWarnFraction > 1 {
		cfg.DutyWarnFraction = d.DutyWarnFraction
	}
	if cfg.DutyLimit <= 0 {
		cfg.DutyLimit = d.DutyLimit
	}
	if cfg.LossWarnBatches == 0 {
		cfg.LossWarnBatches = d.LossWarnBatches
	}
	if cfg.LowBatteryFrac <= 0 || cfg.LowBatteryFrac > 1 {
		cfg.LowBatteryFrac = d.LowBatteryFrac
	}
	return &Engine{
		coll:     coll,
		cfg:      cfg,
		active:   make(map[alertKey]*Alert),
		lossSeen: make(map[wire.NodeID]uint64),
	}
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Generation counts alert state transitions (firings and resolutions).
// It advances under the same lock that mutates the alert maps, so a
// reader that sees generation G sees every transition counted into G.
func (e *Engine) Generation() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// Active returns currently-firing alerts sorted by (kind, node).
func (e *Engine) Active() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.active))
	for _, a := range e.active {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// History returns the newest HistoryLen resolved alerts in resolution
// order.
func (e *Engine) History() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, len(e.history))
	copy(out, e.history)
	return out
}

// Check evaluates all rules at reference time now (seconds in record
// time) and returns newly fired alerts.
func (e *Engine) Check(now float64) []Alert {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	// One registry read serves all four rules: on a collector Nodes
	// copies and merges every shard's registry.
	nodes := e.coll.Nodes()
	var fired []Alert
	fired = append(fired, e.checkNodeDown(nodes, now)...)
	fired = append(fired, e.checkDutyCycle(nodes, now)...)
	fired = append(fired, e.checkUploadLoss(nodes, now)...)
	fired = append(fired, e.checkLowBattery(nodes, now)...)
	if e.inst != nil {
		e.inst.evaluations.Inc()
		e.inst.active.Set(float64(len(e.active)))
		e.inst.checkLatency.Observe(time.Since(start).Seconds())
	}
	return fired
}

// fire and resolve run with e.mu held (only Check reaches them).
func (e *Engine) fire(key alertKey, a Alert) *Alert {
	cp := a
	e.active[key] = &cp
	e.gen++
	if e.inst != nil {
		e.inst.firings.With(string(a.Kind)).Inc()
	}
	return &cp
}

func (e *Engine) resolve(key alertKey, now float64) {
	a, ok := e.active[key]
	if !ok {
		return
	}
	delete(e.active, key)
	e.gen++
	a.Resolved = true
	a.ResolvedAt = now
	if len(e.history) == HistoryLen {
		e.history = append(e.history[:0], e.history[1:]...)
	}
	e.history = append(e.history, *a)
	if e.inst != nil {
		e.inst.resolved.With(string(a.Kind)).Inc()
	}
}

func (e *Engine) checkNodeDown(nodes []collector.NodeInfo, now float64) []Alert {
	var fired []Alert
	for _, n := range nodes {
		key := alertKey{kind: KindNodeDown, node: n.ID}
		silent := now-n.LastBeatTS > e.cfg.HeartbeatTimeoutS
		switch {
		case silent && e.active[key] == nil:
			a := e.fire(key, Alert{
				Kind: KindNodeDown, Node: n.ID, Severity: SeverityCritical,
				FiredAt: now,
				Message: fmt.Sprintf("%v silent for %.0fs (last heartbeat at %.0fs)",
					n.ID, now-n.LastBeatTS, n.LastBeatTS),
			})
			fired = append(fired, *a)
		case !silent:
			e.resolve(key, now)
		}
	}
	return fired
}

func (e *Engine) checkDutyCycle(nodes []collector.NodeInfo, now float64) []Alert {
	var fired []Alert
	threshold := e.cfg.DutyWarnFraction * e.cfg.DutyLimit
	for _, n := range nodes {
		if n.LastStats == nil {
			continue
		}
		key := alertKey{kind: KindDutyCycle, node: n.ID}
		over := n.LastStats.DutyCycleUsed >= threshold
		switch {
		case over && e.active[key] == nil:
			a := e.fire(key, Alert{
				Kind: KindDutyCycle, Node: n.ID, Severity: SeverityWarning,
				FiredAt: now,
				Message: fmt.Sprintf("%v duty cycle %.3f%% is %.0f%% of the %s limit",
					n.ID, 100*n.LastStats.DutyCycleUsed,
					100*n.LastStats.DutyCycleUsed/e.cfg.DutyLimit, "EU868"),
			})
			fired = append(fired, *a)
		case !over:
			e.resolve(key, now)
		}
	}
	return fired
}

func (e *Engine) checkLowBattery(nodes []collector.NodeInfo, now float64) []Alert {
	var fired []Alert
	for _, n := range nodes {
		if n.LastStats == nil || !n.LastStats.Energy {
			continue
		}
		key := alertKey{kind: KindLowBattery, node: n.ID}
		low := n.LastStats.BatteryFrac <= e.cfg.LowBatteryFrac
		switch {
		case low && e.active[key] == nil:
			a := e.fire(key, Alert{
				Kind: KindLowBattery, Node: n.ID, Severity: SeverityWarning,
				FiredAt: now,
				Message: fmt.Sprintf("%v battery at %.0f%% (%.2f V), below the %.0f%% warning level",
					n.ID, 100*n.LastStats.BatteryFrac, n.LastStats.BatteryV,
					100*e.cfg.LowBatteryFrac),
			})
			fired = append(fired, *a)
		case !low:
			// A recharge (solar recovery) resolves the alert.
			e.resolve(key, now)
		}
	}
	return fired
}

func (e *Engine) checkUploadLoss(nodes []collector.NodeInfo, now float64) []Alert {
	var fired []Alert
	for _, n := range nodes {
		key := alertKey{kind: KindUploadLoss, node: n.ID}
		seen := e.lossSeen[n.ID]
		if n.BatchesLost >= seen+e.cfg.LossWarnBatches {
			e.lossSeen[n.ID] = n.BatchesLost
			// Re-fire even if active: growing loss is new information.
			e.resolve(key, now)
			a := e.fire(key, Alert{
				Kind: KindUploadLoss, Node: n.ID, Severity: SeverityWarning,
				FiredAt: now,
				Message: fmt.Sprintf("%v has lost %d upload batches in total",
					n.ID, n.BatchesLost),
			})
			fired = append(fired, *a)
		}
	}
	return fired
}
