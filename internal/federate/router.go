package federate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lorameshmon/internal/metrics"
	"lorameshmon/internal/wire"
)

// Member names one federation member and its ingest endpoint. Name is
// the ring identity (stable across URL changes); URL is the full ingest
// endpoint, e.g. http://host:8080/api/v1/ingest.
type Member struct {
	Name string
	URL  string
}

// RouterConfig tunes the ingest router.
type RouterConfig struct {
	// Members is the static member list partitioning the node space.
	Members []Member
	// VirtualNodes is the ring replication factor (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Attempts bounds how many times one batch is offered to its owner
	// before the router gives up and answers 503 (0 = 3). The agent's
	// buffered retransmit then owns the batch again, so giving up loses
	// nothing — it just moves the retry to the client's backoff clock.
	Attempts int
	// BackoffMin/BackoffMax bound the exponential pause between forward
	// attempts (0 = 25ms/250ms).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Client is the forwarding HTTP client (nil = 10 s timeout default).
	Client *http.Client
	// Metrics, when non-nil, receives the meshmon_federate_* families.
	Metrics *metrics.Registry
}

func (cfg RouterConfig) withDefaults() RouterConfig {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 25 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = 10 * cfg.BackoffMin
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return cfg
}

// routerInstruments are the router's self-observability handles.
type routerInstruments struct {
	forwarded *metrics.Counter // batches delivered to their owner
	rejected  *metrics.Counter // downstream said 4xx: bad batch, relayed
	failed    *metrics.Counter // gave up after Attempts: agent got 503
	retries   *metrics.Counter // individual re-attempts
	sendLat   *metrics.HistogramVec
}

func newRouterInstruments(reg *metrics.Registry) *routerInstruments {
	batches := reg.NewCounterVec("meshmon_federate_batches_total",
		"Batches through the ingest router by outcome.", "result")
	return &routerInstruments{
		forwarded: batches.With("forwarded"),
		rejected:  batches.With("rejected"),
		failed:    batches.With("failed"),
		retries: reg.NewCounter("meshmon_federate_retries_total",
			"Forward attempts beyond the first, across all batches."),
		sendLat: reg.NewHistogramVec("meshmon_federate_member_send_seconds",
			"Round-trip latency of one forward POST, by member.", nil, "member"),
	}
}

// Router is the federation's ingest tier: it accepts agent batches in
// the existing HTTP uplink wire format (JSON or binary, same endpoint
// shape as a collector) and forwards each to the member owning the
// batch's node. Failures downstream surface to the agent as 503, which
// the agent already treats as "buffer and retransmit" — the router adds
// no new client-side protocol. Idempotency across the retransmit is the
// collector dedup state machine's job, exactly as with a direct upload.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	urls    map[string]string // member name -> ingest URL
	inst    *routerInstruments
	sendLat map[string]*metrics.Histogram // resolved per member at wiring time
}

// NewRouter builds a router over the static member list.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federate: router needs at least one member")
	}
	names := make([]string, 0, len(cfg.Members))
	urls := make(map[string]string, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("federate: member needs both name and url (got %+v)", m)
		}
		if _, dup := urls[m.Name]; dup {
			return nil, fmt.Errorf("federate: duplicate member %q", m.Name)
		}
		names = append(names, m.Name)
		urls[m.Name] = m.URL
	}
	ring, err := NewRing(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		ring:    ring,
		urls:    urls,
		inst:    newRouterInstruments(cfg.Metrics),
		sendLat: make(map[string]*metrics.Histogram, len(names)),
	}
	for _, n := range names {
		r.sendLat[n] = r.inst.sendLat.With(n)
	}
	return r, nil
}

// Ring exposes the router's partition function (handoff planning,
// status endpoints).
func (r *Router) Ring() *Ring { return r.ring }

// Metrics returns the registry holding the meshmon_federate_* families.
func (r *Router) Metrics() *metrics.Registry { return r.cfg.Metrics }

// Handler returns the router's HTTP surface: the same ingest endpoint a
// collector serves, so agents point at the router with zero config
// changes, plus a members listing for operators.
//
//	POST /api/v1/ingest   — forward one wire.Batch to its owning member
//	GET  /api/v1/members  — ring membership and ownership sample
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/ingest", r.handleIngest)
	mux.HandleFunc("GET /api/v1/members", r.handleMembers)
	return mux
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", err.Error())
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	defer req.Body.Close()
	// Decode only to learn the owner; the member re-validates on ingest.
	// The original bytes are forwarded untouched, so JSON stays JSON and
	// binary stays binary all the way to the owning collector.
	batch, body, err := wire.ReadBatch(req.Body, req.ContentLength)
	switch {
	case errors.Is(err, wire.ErrBatchTooLarge):
		writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("federate: %w", err))
		return
	case err != nil:
		if body != nil { // read fully, then failed to decode
			r.inst.rejected.Inc()
		}
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	owner := r.ring.Owner(batch.Node)
	status, respBody, err := r.forward(owner, body, req.Header.Get("Content-Type"))
	switch {
	case err != nil:
		// The owner never answered within the attempt budget. 503 keeps
		// the agent's retransmit semantics: the batch stays buffered
		// client-side and dedup absorbs the eventual duplicate delivery.
		r.inst.failed.Inc()
		writeJSONError(w, http.StatusServiceUnavailable,
			fmt.Errorf("federate: member %s unavailable: %v", owner, err))
	case status >= 200 && status < 300:
		r.inst.forwarded.Inc()
		relay(w, status, respBody)
	default:
		// A definitive downstream verdict (400 bad batch, 413 too large):
		// relay it so the agent drops the batch exactly as it would
		// talking to the collector directly.
		r.inst.rejected.Inc()
		relay(w, status, respBody)
	}
}

func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client went away
}

// forward offers the batch to the owner with bounded retry/backoff.
// Network errors, timeouts and 5xx answers are retried (the batch may
// or may not have been ingested — dedup makes the re-offer safe); any
// definitive status < 500 ends the attempts immediately.
func (r *Router) forward(owner string, body []byte, contentType string) (int, []byte, error) {
	url := r.urls[owner]
	if contentType == "" {
		contentType = "application/json"
	}
	backoff := r.cfg.BackoffMin
	var lastErr error
	for attempt := 0; attempt < r.cfg.Attempts; attempt++ {
		if attempt > 0 {
			r.inst.retries.Inc()
			time.Sleep(backoff)
			backoff *= 2
			if backoff > r.cfg.BackoffMax {
				backoff = r.cfg.BackoffMax
			}
		}
		start := time.Now()
		resp, err := r.cfg.Client.Post(url, contentType, bytes.NewReader(body))
		r.sendLat[owner].Observe(time.Since(start).Seconds())
		if err != nil {
			lastErr = err
			continue
		}
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, wire.MaxBatchBytes))
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("member answered %s", resp.Status)
			continue
		}
		return resp.StatusCode, respBody, nil
	}
	return 0, nil, lastErr
}

func (r *Router) handleMembers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n  \"virtual_nodes\": %d,\n  \"members\": [", r.ring.VirtualNodes())
	for i, m := range r.ring.Members() {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n    {\"name\": %q, \"url\": %q}", m, r.urls[m])
	}
	fmt.Fprint(w, "\n  ]\n}\n")
}
