package registry

import "time"

// Prefetcher is the queue-lookahead warmer of the host tier: the
// cluster admission stage shows it every arrival still queued ahead of
// placement, and it starts remote fetches for their adapters so the
// copy overlaps the request's queueing delay instead of stalling its
// first scheduled iteration. Lookahead bounds the fetches it may keep
// in flight, so speculative warming cannot monopolize the registry
// link against demand fetches.
type Prefetcher struct {
	Store *Store
	// Lookahead caps concurrent in-flight fetches the prefetcher will
	// add to (counting demand fetches too: the link is shared, and a
	// deep demand backlog is a signal to stop speculating).
	Lookahead int
	// FamilyWarm warms a family's shared chunk prefix
	// (Store.PrefetchFamily — the tree-structured warm set) once
	// FamilyWarm distinct observations of that family's adapters
	// accumulate: one prefix transfer then serves every sibling's
	// shared bytes. 0 disables family warming.
	FamilyWarm int
	famSeen    map[string]int
}

// NewPrefetcher builds a prefetcher over a store.
func NewPrefetcher(store *Store, lookahead int) *Prefetcher {
	if lookahead <= 0 {
		lookahead = 4
	}
	return &Prefetcher{Store: store, Lookahead: lookahead}
}

// Observe shows the prefetcher one pending arrival's adapter. The hot
// path (adapter already resident or fetching) is allocation-free; a
// cold observation starts a fetch when the link has lookahead room.
// started reports whether a new fetch went on the link; eta is its
// completion time.
//
//valora:hotpath
func (p *Prefetcher) Observe(adapterID int, now time.Duration) (eta time.Duration, started bool) {
	if p == nil || p.Store == nil {
		return 0, false
	}
	if p.Store.InflightFetches() >= p.Lookahead {
		return 0, false
	}
	if p.FamilyWarm > 0 {
		p.observeFamily(adapterID, now)
	}
	return p.Store.Prefetch(adapterID, now)
}

// observeFamily counts arrivals per adapter family and warms a
// family's shared chunk prefix once it crosses the FamilyWarm
// threshold — siblings observed after that miss only their private
// tails. Steady state (family already counted past the threshold) is
// a map increment on an existing key: no allocation.
func (p *Prefetcher) observeFamily(adapterID int, now time.Duration) {
	family := p.Store.FamilyOf(adapterID)
	if family == "" {
		return
	}
	if p.famSeen == nil {
		p.famSeen = make(map[string]int)
	}
	p.famSeen[family]++
	if p.famSeen[family] == p.FamilyWarm {
		p.Store.PrefetchFamily(family, now)
	}
}
