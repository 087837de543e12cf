package serving

import (
	"fmt"

	"valora/internal/sched"
)

// DispatchPolicy routes each arriving request to one of a cluster's
// serving instances. Pick runs at the request's arrival on the shared
// virtual timeline, so the instance states it inspects (InFlight) are
// causally consistent with the arrival order.
type DispatchPolicy interface {
	Name() string
	// Pick returns the index of the chosen instance.
	Pick(r *sched.Request, servers []*Server) int
}

// StatelessDispatch marks policies whose Pick depends only on the
// request sequence — never on live server state (InFlight, instance
// IDs). Cluster.Run exploits the marker: a stateless policy's routing
// can be precomputed from the trace alone, so the per-server request
// streams are known up front and the instances drain independently in
// parallel (the partitioned plan). A policy that reads any server
// state must not implement it.
type StatelessDispatch interface {
	DispatchPolicy
	// StatelessDispatch is a marker method (never called).
	StatelessDispatch()
}

// RoundRobin cycles through instances in arrival order — the
// adapter-oblivious baseline (the sharded replay the cluster used
// before the shared timeline).
type RoundRobin struct {
	next int
}

// StatelessDispatch marks round-robin as precomputable: Pick reads
// only the internal cycle counter, never the servers.
func (p *RoundRobin) StatelessDispatch() {}

// NewRoundRobin builds a round-robin dispatcher.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name identifies the policy in reports.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick returns instances cyclically.
func (p *RoundRobin) Pick(_ *sched.Request, servers []*Server) int {
	i := p.next % len(servers)
	p.next++
	return i
}

// LeastLoaded sends each request to the instance with the fewest
// in-flight requests (ties to the lowest index), smoothing queueing
// under bursty arrivals at the cost of scattering each adapter's
// traffic across replicas.
type LeastLoaded struct{}

// NewLeastLoaded builds a least-loaded dispatcher.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name identifies the policy in reports.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick returns the index of the least-loaded instance.
func (LeastLoaded) Pick(_ *sched.Request, servers []*Server) int {
	return leastLoaded(servers)
}

// AdapterAffinity pins each adapter to one replica: the first request
// for an adapter is placed on the then-least-loaded instance and every
// later request follows it. Concentrating an adapter's traffic keeps
// its weights resident (fewer swap-ins) and keeps the per-replica
// adapter mix narrow, so merged/mixture modes stay profitable and the
// switcher fires less (§4.4's economics, applied across the cluster).
//
// Homes are keyed by the stable Server.InstanceID, not the position in
// the candidate slice: managed clusters hand Pick shifting candidate
// subsets (headroom filtering, autoscaler churn), and an index-keyed
// map would silently point at the wrong instance the moment the set
// changes.
type AdapterAffinity struct {
	home map[int]int // adapter ID → stable instance ID
}

// NewAdapterAffinity builds an adapter-affinity dispatcher.
func NewAdapterAffinity() *AdapterAffinity {
	return &AdapterAffinity{home: make(map[int]int)}
}

// Name identifies the policy in reports.
func (p *AdapterAffinity) Name() string { return "adapter-affinity" }

// Pick returns the adapter's home instance, assigning one (the
// currently least-loaded replica) on first sight. When the home is
// absent from this candidate set (backpressured or retired), the
// request overflows to the least-loaded candidate without re-homing:
// the pinning survives temporary absences instead of flapping.
func (p *AdapterAffinity) Pick(r *sched.Request, servers []*Server) int {
	if id, ok := p.home[r.AdapterID]; ok {
		for j, srv := range servers {
			if srv.InstanceID() == id {
				return j
			}
		}
		return leastLoaded(servers)
	}
	j := leastLoaded(servers)
	p.home[r.AdapterID] = servers[j].InstanceID()
	return j
}

// TenantAffinity keys placement on the tenant instead of the adapter:
// each tenant's traffic is pinned to a small stable subset of
// instances (its "home set"), so the tenant's hot adapters
// concentrate their GPU residency there and the host-tier quota has a
// matching device-side footprint. Home sets are keyed by stable
// instance IDs and survive autoscaler churn; requests overflow to the
// least-loaded candidate when no home has headroom.
type TenantAffinity struct {
	// HomeSize maps tenant → home-set size (default 1). Derive it from
	// the tenant's residency-quota share of the fleet.
	HomeSize map[string]int

	homes map[string][]int // tenant → stable instance IDs
}

// NewTenantAffinity builds a tenant-affinity dispatcher.
func NewTenantAffinity(homeSize map[string]int) *TenantAffinity {
	return &TenantAffinity{HomeSize: homeSize, homes: make(map[string][]int)}
}

// Name identifies the policy in reports.
func (p *TenantAffinity) Name() string { return "tenant-affinity" }

// Pick routes to the least-loaded home instance present among the
// candidates, assigning the home set (the then-least-loaded distinct
// candidates) on the tenant's first sight. A home set assigned while
// backpressure (or a pre-scale-up fleet) hid candidates is topped up
// on later Picks until it reaches the configured size, so a tenant
// first seen during congestion is not pinned to a shrunken subset
// forever.
func (p *TenantAffinity) Pick(r *sched.Request, servers []*Server) int {
	n := 1
	if p.HomeSize != nil && p.HomeSize[r.Tenant] > n {
		n = p.HomeSize[r.Tenant]
	}
	hs := p.homes[r.Tenant]
	if len(hs) < n {
		taken := make(map[int]bool, len(hs))
		for _, id := range hs {
			taken[id] = true
		}
		for len(hs) < n {
			best, bestLoad := -1, 0
			for j, srv := range servers {
				if taken[srv.InstanceID()] {
					continue
				}
				if load := srv.InFlight(); best < 0 || load < bestLoad {
					best, bestLoad = j, load
				}
			}
			if best < 0 {
				break // fewer distinct candidates than homes wanted
			}
			taken[servers[best].InstanceID()] = true
			hs = append(hs, servers[best].InstanceID())
		}
		p.homes[r.Tenant] = hs
	}
	best, bestLoad := -1, 0
	for j, srv := range servers {
		for _, id := range hs {
			if srv.InstanceID() == id {
				if load := srv.InFlight(); best < 0 || load < bestLoad {
					best, bestLoad = j, load
				}
				break
			}
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoaded(servers)
}

func leastLoaded(servers []*Server) int {
	best, bestLoad := 0, -1
	for i, srv := range servers {
		load := srv.InFlight()
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// DispatchByName resolves a policy name (as accepted by the HTTP
// replay endpoint and CLI flags) to a fresh policy instance; it
// accepts "round-robin", "least-loaded" and "adapter-affinity" (plus
// the short forms "rr", "ll", "affinity"). The empty string means
// round-robin.
func DispatchByName(name string) (DispatchPolicy, error) {
	switch name {
	case "", "round-robin", "rr":
		return NewRoundRobin(), nil
	case "least-loaded", "ll":
		return NewLeastLoaded(), nil
	case "adapter-affinity", "affinity":
		return NewAdapterAffinity(), nil
	case "tenant-affinity":
		return NewTenantAffinity(nil), nil
	}
	return nil, fmt.Errorf("serving: unknown dispatch policy %q", name)
}
