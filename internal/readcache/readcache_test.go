package readcache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingHandler renders a body derived from an external state value
// and counts invocations — the stand-in for an expensive panel render.
type countingHandler struct {
	renders atomic.Uint64
	state   *atomic.Uint64
	status  int
	delay   time.Duration
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h.renders.Add(1)
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	w.Header().Set("Content-Type", "text/plain")
	status := h.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	fmt.Fprintf(w, "state=%d", h.state.Load())
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func TestCacheHitUntilEpochAdvances(t *testing.T) {
	var epoch, state atomic.Uint64
	inner := &countingHandler{state: &state}
	c := New(Config{Epoch: epoch.Load})
	h := c.Wrap("panel", inner)

	first := get(t, h, "/x")
	if first.Code != http.StatusOK || first.Body.String() != "state=0" {
		t.Fatalf("first = %d %q", first.Code, first.Body.String())
	}
	// Mutate state WITHOUT bumping the epoch: the cache must keep
	// serving the epoch-0 render (that is the contract — state only
	// changes when the epoch does; here we cheat to prove which copy
	// serves).
	state.Store(1)
	second := get(t, h, "/x")
	if second.Body.String() != "state=0" {
		t.Fatalf("cached read = %q, want the epoch-0 render", second.Body.String())
	}
	if got := inner.renders.Load(); got != 1 {
		t.Fatalf("renders = %d, want 1", got)
	}
	if hdr := second.Header().Get(EpochHeader); hdr != "0" {
		t.Fatalf("%s = %q, want 0", EpochHeader, hdr)
	}

	// Epoch advance invalidates: the next read re-renders.
	epoch.Store(1)
	third := get(t, h, "/x")
	if third.Body.String() != "state=1" {
		t.Fatalf("post-bump read = %q, want fresh render", third.Body.String())
	}
	if got := inner.renders.Load(); got != 2 {
		t.Fatalf("renders = %d, want 2", got)
	}
	if hdr := third.Header().Get(EpochHeader); hdr != "1" {
		t.Fatalf("%s = %q, want 1", EpochHeader, hdr)
	}
}

func TestCacheKeysIncludeQueryString(t *testing.T) {
	var epoch atomic.Uint64
	var state atomic.Uint64
	inner := &countingHandler{state: &state}
	c := New(Config{Epoch: epoch.Load})
	h := c.Wrap("panel", inner)
	get(t, h, "/chart?node=N0001")
	get(t, h, "/chart?node=N0002")
	get(t, h, "/chart?node=N0001")
	if got := inner.renders.Load(); got != 2 {
		t.Fatalf("renders = %d, want 2 (distinct query strings)", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheSkipsNon200AndNonGET(t *testing.T) {
	var epoch, state atomic.Uint64
	inner := &countingHandler{state: &state, status: http.StatusNotFound}
	c := New(Config{Epoch: epoch.Load})
	h := c.Wrap("panel", inner)
	for i := 0; i < 2; i++ {
		if rec := get(t, h, "/missing"); rec.Code != http.StatusNotFound {
			t.Fatalf("code = %d", rec.Code)
		}
	}
	if got := inner.renders.Load(); got != 2 {
		t.Fatalf("404 renders = %d, want 2 (not cached)", got)
	}

	ok := &countingHandler{state: &state}
	h2 := c.Wrap("panel2", ok)
	rec := httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/x", nil))
	h2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/x", nil))
	if got := ok.renders.Load(); got != 2 {
		t.Fatalf("POST renders = %d, want 2 (not cached)", got)
	}
}

// TestCacheSingleflight: N concurrent first requests at one epoch
// produce exactly one render; everyone gets that render's bytes.
func TestCacheSingleflight(t *testing.T) {
	var epoch, state atomic.Uint64
	inner := &countingHandler{state: &state, delay: 20 * time.Millisecond}
	c := New(Config{Epoch: epoch.Load})
	h := c.Wrap("panel", inner)

	const clients = 16
	var wg sync.WaitGroup
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = get(t, h, "/x").Body.String()
		}(i)
	}
	wg.Wait()
	if got := inner.renders.Load(); got != 1 {
		t.Fatalf("renders = %d, want 1 (coalesced)", got)
	}
	for i, b := range bodies {
		if b != "state=0" {
			t.Fatalf("client %d got %q", i, b)
		}
	}
}

func TestCacheBoundedEntries(t *testing.T) {
	var epoch, state atomic.Uint64
	inner := &countingHandler{state: &state}
	c := New(Config{Epoch: epoch.Load, MaxEntries: 4})
	h := c.Wrap("panel", inner)
	for i := 0; i < 20; i++ {
		get(t, h, fmt.Sprintf("/x?i=%d", i))
	}
	if got := c.Len(); got > 4 {
		t.Fatalf("Len = %d, want <= 4", got)
	}
}

func TestFormatUint(t *testing.T) {
	for _, v := range []uint64{0, 1, 9, 10, 999, 18446744073709551615} {
		if got, want := formatUint(v), fmt.Sprintf("%d", v); got != want {
			t.Fatalf("formatUint(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestCacheHandlerWritingNothing: a panel that sets a header but writes
// nothing is answered as net/http answers it — 200 with an empty body —
// and cached like any 200, instead of replaying status 0.
func TestCacheHandlerWritingNothing(t *testing.T) {
	var epoch atomic.Uint64
	var renders atomic.Uint64
	c := New(Config{Epoch: epoch.Load})
	srv := httptest.NewServer(c.Wrap("panel", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		renders.Add(1)
		w.Header().Set("Content-Type", "application/json")
	})))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/empty")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != 0 {
			t.Fatalf("request %d: %d %q %v, want 200 with an empty body", i, resp.StatusCode, body, err)
		}
	}
	if got := renders.Load(); got != 1 || c.Len() != 1 {
		t.Fatalf("renders %d, cached %d, want 1 and 1", got, c.Len())
	}
}
