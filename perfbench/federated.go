package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/dashboard"
	"lorameshmon/internal/federate"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
)

// federation is two in-process member collectors (no WAL) behind the
// consistent-hash ingest router, with the dashboard over federate.View,
// each piece on its own loopback HTTP server as cmd/meshmon-federate and
// cmd/meshmon-collector would run them.
type federation struct {
	members []*collector.Collector
	regs    []*metrics.Registry // members', router's, view's and dashboard's
	view    *federate.View
	engine  *alert.Engine
	dash    *dashboard.Server
	servers []*httptest.Server // members, router, dashboard
	bg      background
}

func newFederation(e *env) (*federation, error) {
	f := &federation{}
	var members []federate.Member
	var views []federate.MemberView
	for i := 0; i < 2; i++ {
		reg := metrics.NewRegistry()
		db := tsdb.New()
		db.Instrument(reg)
		c := collector.New(db, collector.Config{RecentPackets: 1000, Metrics: reg})
		srv := httptest.NewServer(e.handler(func(string) string { return "member.http_ingest" }, c.APIHandler()))
		name := fmt.Sprintf("m%d", i+1)
		f.members = append(f.members, c)
		f.regs = append(f.regs, reg)
		f.servers = append(f.servers, srv)
		members = append(members, federate.Member{Name: name, URL: srv.URL + "/api/v1/ingest"})
		views = append(views, federate.MemberView{Name: name, View: c})
	}
	rreg, vreg, dreg := metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()
	f.regs = append(f.regs, rreg, vreg, dreg)
	router, err := federate.NewRouter(federate.RouterConfig{Members: members, Metrics: rreg})
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, httptest.NewServer(e.handler(func(string) string { return "federate.router" }, router.Handler())))
	f.view, err = federate.NewView(views, federate.ViewConfig{Metrics: vreg})
	if err != nil {
		f.close()
		return nil, err
	}
	view := e.view(f.view)
	f.engine = alert.NewEngine(view, alert.Config{HeartbeatTimeoutS: 90})
	f.engine.Instrument(dreg)
	f.dash = dashboard.New(view, f.engine, dashboard.Config{
		Title: "LoRa Mesh Monitor", Metrics: dreg, CacheEntries: 512, SSEQueue: 16,
	})
	f.bg.every(10*time.Second, func() { f.engine.Check(f.view.MaxTS()) })
	f.servers = append(f.servers, httptest.NewServer(e.handler(dashSpan, f.dash.Handler())))
	return f, nil
}

func (f *federation) routerURL() string { return f.servers[2].URL }
func (f *federation) dashURL() string   { return f.servers[3].URL }

func (f *federation) close() error {
	f.bg.stop()
	if f.dash != nil {
		f.dash.Close()
	}
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
	return nil
}

// runFederatedIngest: JSON ingest over one connection to the router,
// which forwards each batch to the member owning its node.
func runFederatedIngest(e *env) (*result, error) {
	res := newResult()
	p := ingestParams{rate: federatedRate, nodes: 200, packets: 29}
	var fed *federation
	build := func(int) (ingestSystem, func() error, error) {
		f, err := newFederation(e)
		if err != nil {
			return ingestSystem{}, nil, err
		}
		fed = f
		return ingestSystem{
			ingestURL: f.routerURL() + "/api/v1/ingest",
			eventsURL: f.dashURL() + "/events",
			gen:       f.engine.Generation,
			epoch:     f.view.Epoch,
			stats:     f.view.Stats,
		}, f.close, nil
	}
	finish := func(sys ingestSystem, acked uint64, teardown func() error) error {
		registryMetrics(res, fed.regs...)
		var batches, epochs uint64
		for _, m := range fed.members {
			batches += m.Stats().BatchesIngested
			epochs += m.Epoch()
		}
		res.check(batches == acked, "members ingested %d batches, acked %d", batches, acked)
		res.check(sys.stats().BatchesIngested == batches, "view stats %d != member sum %d", sys.stats().BatchesIngested, batches)
		res.check(epochs == sys.epoch(), "member epochs sum %d != view epoch %d", epochs, sys.epoch())
		for i, m := range fed.members {
			res.check(m.Stats().BatchesIngested > 0, "member %d received no batches", i+1)
		}
		res.info = append(res.info, "federation members=2 (no WAL) router=consistent-hash vnodes=128")
		return teardown()
	}
	if err := runIngest(e, p, res, build, finish); err != nil {
		return nil, err
	}
	return res, nil
}
