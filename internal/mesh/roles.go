package mesh

import (
	"lorameshmon/internal/radio"
)

// Node roles, advertised in HELLOs exactly as LoRaMesher's NetworkNode
// role byte: a node flagged as gateway bridges the mesh to the outside
// world, and other nodes can address "the nearest gateway" without
// knowing concrete addresses.

// Role bits.
const (
	// RoleNode is a plain mesh participant.
	RoleNode uint8 = 0
	// RoleGateway marks a mesh-to-Internet bridge.
	RoleGateway uint8 = 1 << 0
)

// Role returns this node's configured role.
func (r *Router) Role() uint8 { return r.cfg.Role }

// RoleOf returns the last role advertised by id (RoleNode when unknown).
func (r *Router) RoleOf(id radio.ID) uint8 {
	if int(id) < len(r.roles) {
		return r.roles[id]
	}
	return RoleNode
}

// setRole records id's advertised role, growing the ID-indexed role
// vector only when a non-default role must be stored beyond its end.
func (r *Router) setRole(id radio.ID, role uint8) {
	if int(id) >= len(r.roles) {
		if role == RoleNode {
			return
		}
		r.roles = append(r.roles, make([]uint8, int(id)+1-len(r.roles))...)
	}
	r.roles[id] = role
}

// NearestGateway returns the reachable gateway with the lowest hop
// metric. When this node is itself a gateway it returns its own address.
func (r *Router) NearestGateway() (radio.ID, bool) {
	if r.cfg.Role&RoleGateway != 0 {
		return r.rad.ID(), true
	}
	best := radio.ID(0)
	bestMetric := uint8(MetricInf)
	found := false
	for _, route := range r.table.routes {
		if r.RoleOf(route.Dst)&RoleGateway == 0 {
			continue
		}
		if route.Metric < bestMetric {
			best, bestMetric, found = route.Dst, route.Metric, true
		}
	}
	return best, found
}

// SendToGateway routes a payload to the nearest gateway.
func (r *Router) SendToGateway(payload []byte, reliable bool) (uint16, error) {
	gw, ok := r.NearestGateway()
	if !ok {
		return 0, ErrNoRoute
	}
	return r.Send(gw, payload, reliable)
}

// buildAds assembles HELLO advertisements from the routing table plus
// the roles learned for each destination, in a new array.
func (r *Router) buildAds() []RouteAd { return r.buildAdsInto(nil) }

// buildAdsInto is buildAds writing into dst's array when its capacity
// fits the table, and otherwise into one new array of exact size.
func (r *Router) buildAdsInto(dst []RouteAd) []RouteAd {
	n := len(r.table.routes)
	if cap(dst) < n {
		dst = make([]RouteAd, n)
	}
	ads := dst[:n]
	for i, route := range r.table.routes {
		ads[i] = RouteAd{
			Addr:   route.Dst,
			Metric: route.Metric,
			Role:   r.RoleOf(route.Dst),
			Via:    route.NextHop,
		}
	}
	return ads
}

// learnRoles records role information from a received HELLO.
func (r *Router) learnRoles(pkt Packet) {
	r.setRole(pkt.Src, pkt.SrcRole)
	for _, ad := range pkt.Routes {
		if ad.Addr == r.rad.ID() {
			continue
		}
		r.setRole(ad.Addr, ad.Role)
	}
}
