// Command meshmon-federate runs the federation's ingest router: agents
// POST wire.Batch JSON (or binary) to /api/v1/ingest exactly as they
// would against a single collector, and the router forwards each batch
// to the member collector owning the batch's node on a consistent-hash
// ring. Downstream failures surface as 503 after a bounded retry
// budget, which the agent already answers with buffered retransmit.
//
// Membership is a static list:
//
//	meshmon-federate -members m1=http://host1:8080,m2=http://host2:8080
//
// Each member value is the collector's base URL (the /api/v1/ingest
// suffix is appended when absent) or a full ingest URL. Member names
// are the ring identities: keep them stable across restarts and URL
// changes, or partitions will silently reshuffle.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lorameshmon/internal/federate"
	"lorameshmon/internal/metrics"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		membersStr = flag.String("members", "", "comma-separated name=url member list (required)")
		vnodes     = flag.Int("vnodes", federate.DefaultVirtualNodes, "virtual nodes per member on the hash ring")
		attempts   = flag.Int("attempts", 3, "forward attempts per batch before answering 503")
		backoffMin = flag.Duration("backoff-min", 25*time.Millisecond, "first retry pause; doubles per attempt")
		backoffMax = flag.Duration("backoff-max", 250*time.Millisecond, "retry pause ceiling")
		timeout    = flag.Duration("member-timeout", 10*time.Second, "per-forward HTTP timeout")
	)
	flag.Parse()

	members, err := parseMembers(*membersStr)
	if err != nil {
		log.Fatal(err)
	}
	reg := metrics.NewRegistry()
	router, err := federate.NewRouter(federate.RouterConfig{
		Members:      members,
		VirtualNodes: *vnodes,
		Attempts:     *attempts,
		BackoffMin:   *backoffMin,
		BackoffMax:   *backoffMax,
		Client:       &http.Client{Timeout: *timeout},
		Metrics:      reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/api/", router.Handler())
	mux.Handle("GET /metrics", reg.Handler())

	srv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	log.Printf("meshmon-federate routing %d members with %d vnodes each, listening on %s (ingest at /api/v1/ingest, metrics at /metrics)",
		len(members), *vnodes, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("meshmon-federate stopped")
}

// parseMembers parses "name=url,name=url", appending the standard
// ingest path to bare base URLs.
func parseMembers(s string) ([]federate.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("meshmon-federate: -members is required (name=url,name=url)")
	}
	var out []federate.Member
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, url, ok := strings.Cut(tok, "=")
		if !ok || name == "" || url == "" {
			return nil, errors.New("meshmon-federate: bad member " + tok + " (want name=url)")
		}
		if !strings.Contains(url, "/api/") {
			url = strings.TrimRight(url, "/") + "/api/v1/ingest"
		}
		out = append(out, federate.Member{Name: name, URL: url})
	}
	return out, nil
}
