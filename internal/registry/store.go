package registry

import (
	"fmt"
	"sync"
	"time"

	"valora/internal/sim"
	"valora/internal/trace"
)

// Config shapes the host tier and the remote links of a Store.
type Config struct {
	// HostCapacity bounds resident host-DRAM bytes. In-flight fetches
	// do not reserve capacity: eviction happens when a chunk lands, so
	// a queue of slow fetches cannot strip the warm set ahead of time
	// (MaxInflight bounds the landing overhang instead).
	HostCapacity int64
	// RemoteLatency is the per-fetch base latency of the registry
	// (request round trip + object-store lookup), charged once per
	// adapter fetch after its last chunk lands.
	RemoteLatency time.Duration
	// RemoteBandwidth is each replica link's sustained transfer rate in
	// bytes/second. Transfers serialize on a link: one enqueued while
	// another is on the wire queues behind it.
	RemoteBandwidth float64
	// MaxInflight bounds the outstanding fetch queue. Fetched bytes
	// claim capacity only when they land, so the bound is what keeps
	// a burst of cold demands from queueing an eviction storm: at most
	// MaxInflight landings' worth of eviction can be outstanding, and
	// everything beyond is denied and simply retries — the requests
	// wait either way, but the warm set survives the queue.
	MaxInflight int
	// MaxPinnedFraction caps the total guaranteed bytes quota pins may
	// claim, as a fraction of HostCapacity; the cap is fixed at store
	// construction. SetQuota denies (and reports) oversubscription
	// beyond it: the adapter-cold-start experiment showed quotas
	// regressing once pinned bytes approach half the tier — the
	// floating pool left over is too small to absorb the sweep. 0
	// means the default 0.5; negative disables the valve.
	MaxPinnedFraction float64
	// ChunkSize is the content-addressing granule (chunk.go): adapters
	// are digested as ordered lists of ChunkSize-byte chunks, family
	// siblings dedup their shared prefix, residency is refcounted per
	// chunk, and the links move only missing chunks. 0 (the default)
	// makes each adapter a single chunk: one transfer per fetch, and
	// only content-identical (or wholly family-shared) adapters dedup.
	ChunkSize int64
	// Replicas is the number of registry replica links, each with its
	// own RemoteBandwidth wire; chunks go to the least-loaded link. 0
	// means 1.
	Replicas int
	// LinkWeights sets per-tenant fair-share weights on the replica
	// links (unlisted tenants weigh 1): each link serves the backlogged
	// tenant with the least weighted bytes served, demand class before
	// prefetch within a tenant, so one tenant's cold sweep cannot
	// starve another's demand fetches.
	LinkWeights map[string]float64
}

func (c Config) withDefaults() Config {
	if c.HostCapacity <= 0 {
		c.HostCapacity = 16 << 30
	}
	if c.RemoteLatency <= 0 {
		c.RemoteLatency = 5 * time.Millisecond
	}
	if c.RemoteBandwidth <= 0 {
		c.RemoteBandwidth = 1.2e9
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.MaxPinnedFraction == 0 {
		c.MaxPinnedFraction = 0.5
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// pinCap reports the byte bound of the quota safety valve (the largest
// total GuaranteedBytes SetQuota will accept), or a negative value
// when the valve is disabled.
func (c Config) pinCap() int64 {
	if c.MaxPinnedFraction < 0 {
		return -1
	}
	return int64(c.MaxPinnedFraction * float64(c.HostCapacity))
}

// TenantQuota bounds a tenant's host-tier residency. GuaranteedBytes
// of the tenant's hottest adapters are pinned (never evicted), the
// counterpart of sched.TenantConfig's guaranteed weight; BurstBytes of
// additional residency is protected (evicted only when no unprotected
// victim remains), the counterpart of burst credit. Residency beyond
// guaranteed+burst competes in plain LRU.
type TenantQuota struct {
	GuaranteedBytes int64
	BurstBytes      int64
}

// Status reports what the host tier did about one adapter demand.
type Status int

const (
	// StatusHit: the adapter is host-resident; a GPU swap-in can start
	// immediately (one PCIe copy, as the paper assumes).
	StatusHit Status = iota
	// StatusFetching: a remote fetch is already in flight; the demand
	// must wait for its completion.
	StatusFetching
	// StatusStarted: this demand started a remote fetch; the adapter
	// becomes host-resident at the returned completion time.
	StatusStarted
	// StatusDenied: no fetch could start because the host tier cannot
	// make room (everything resident is pinned or protected and the
	// in-flight reservations fill the remainder). The eta is sim.Never
	// when the adapter is larger than the whole tier and never will
	// fit.
	StatusDenied
	// StatusUncatalogued: the adapter is unknown to the catalog; the
	// store does not manage it and callers should fall back to the
	// always-host-resident behavior.
	StatusUncatalogued
)

func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusFetching:
		return "fetching"
	case StatusStarted:
		return "started"
	case StatusDenied:
		return "denied"
	case StatusUncatalogued:
		return "uncatalogued"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Stats are the store's cumulative counters. Demand hits/misses count
// Demand calls only (a demand retrying behind an in-flight fetch is
// not re-counted); prefetch traffic is accounted separately so the
// demand hit rate is not polluted by speculative warming.
type Stats struct {
	HostHits        int
	HostMisses      int
	Fetches         int
	FetchBytes      int64
	PrefetchFetches int
	PrefetchBytes   int64
	FetchDenied     int
	Evictions       int
	EvictedBytes    int64
	// Discarded counts fetched transfers dropped at landing because
	// quota pins grew past the admission-time room check.
	Discarded int

	// Chunk counters. FetchBytes/PrefetchBytes above count bytes
	// actually put on the links — deduped chunks count once — so they
	// can be far below the nominal adapter sizes. With one chunk per
	// adapter (ChunkSize 0) a chunk transfer is an adapter transfer,
	// and the dedup counters stay zero unless adapters share content.
	ChunkFetches    int   // chunk transfers enqueued on replica links
	ChunkFetchBytes int64 // bytes those transfers moved
	// DedupHits counts demands served without any transfer because
	// every chunk was already resident via family siblings or the
	// family warm set (a subset of HostHits).
	DedupHits int
	// DedupedBytes accumulates nominal bytes that never crossed the
	// link because chunk-level sharing already held them.
	DedupedBytes int64
	// ChunkEvictions counts chunks freed (refcount reached zero on an
	// adapter eviction or an aborted fetch).
	ChunkEvictions int
}

// Store is the tiered adapter distribution state: the bounded host
// cache plus the remote-link fetch model. One Store models one
// deployment's host DRAM (a multi-GPU node shares it across serving
// instances); all times are virtual (sim) times. The exported methods
// are safe for concurrent use, but the mutex guards state integrity,
// not event ordering: the link model's fetch order is observable, so
// only a global sequential order reproduces it bit-identically. A
// cluster whose instances share a store is therefore never partitioned
// across workers (Cluster.partitioned in internal/serving); it replays
// on the shared timeline.
type Store struct {
	mu     sync.Mutex
	cfg    Config
	cat    *Catalog
	quotas map[string]TenantQuota

	pinnedB  int64         // pinned bytes across tenants
	advanced time.Duration // high-water mark of Advance calls

	tenantPinned   map[string]int64
	tenantResident map[string]int64

	ch       *chunkState             // chunk residency, LRU and replica links (chunk.go)
	fetchObs func(trace.FetchRecord) // completed-fetch observer (SetFetchObserver)

	// eachChunk makes startFetch reschedule a link after every chunk it
	// enqueues, instead of once per fetch: the per-chunk reference path
	// the differential test holds the batched path to.
	eachChunk bool

	stats Stats
}

// NewStore builds a store over a catalog.
func NewStore(cfg Config, cat *Catalog) *Store {
	if cat == nil {
		cat = NewCatalog()
	}
	cfg = cfg.withDefaults()
	return &Store{
		cfg:            cfg,
		cat:            cat,
		quotas:         make(map[string]TenantQuota),
		tenantPinned:   make(map[string]int64),
		tenantResident: make(map[string]int64),
		ch:             newChunkState(cfg.Replicas),
	}
}

// Catalog exposes the store's catalog.
func (s *Store) Catalog() *Catalog { return s.cat }

// SetQuota declares a tenant's residency quota. Quotas only shape
// pinning and eviction from the time they are set; they do not evict
// retroactively. A lowered guarantee releases the tenant's pins above
// it, least recently used first; released adapters stay resident and
// become evictable. It denies oversubscription — a total GuaranteedBytes
// across tenants beyond the pin cap fixed at store construction
// (Config.MaxPinnedFraction of the host tier) — returning an error
// and leaving the tenant's previous quota in place: guarantees past
// that fraction starve the floating LRU pool and regress exactly the
// cold-start tail they exist to protect.
func (s *Store) SetQuota(tenant string, q TenantQuota) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap := s.cfg.pinCap(); cap >= 0 && q.GuaranteedBytes > 0 {
		var total int64
		for t, other := range s.quotas {
			if t != tenant {
				total += other.GuaranteedBytes
			}
		}
		if total+q.GuaranteedBytes > cap {
			return fmt.Errorf("registry: quota for %q oversubscribes the host tier: %d guaranteed bytes total > cap %d (%.0f%% of %d); shrink guarantees or raise MaxPinnedFraction",
				tenant, total+q.GuaranteedBytes, cap, 100*s.cfg.MaxPinnedFraction, s.cfg.HostCapacity)
		}
	}
	s.quotas[tenant] = q
	for s.tenantPinned[tenant] > q.GuaranteedBytes {
		v := s.lruPinned(tenant, nil)
		if v == nil {
			break
		}
		s.unpin(v)
	}
	return nil
}

// SetFetchObserver registers a callback invoked (under the store
// lock — keep it cheap, e.g. trace.FetchRecorder.Append) with one row
// per completed adapter fetch: the rows calib.FitFetchCost fits.
// nil disables.
func (s *Store) SetFetchObserver(fn func(trace.FetchRecord)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetchObs = fn
}

// Stats returns a copy of the cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// hostUsed reports resident host bytes: the deduplicated sum of
// resident chunk bytes.
func (s *Store) hostUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ch.used
}

// InflightFetches reports the number of adapter fetches in flight.
func (s *Store) InflightFetches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ch.inflight)
}

// NextFetchDone reports the earliest in-flight fetch completion, or
// sim.Never when the link is idle. Blocked instances use it to jump
// their clocks to the moment new residency appears.
func (s *Store) NextFetchDone() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := sim.Never
	for _, ca := range s.ch.inflight {
		if next == sim.Never || ca.done < next {
			next = ca.done
		}
	}
	return next
}

// Advance completes every fetch due at or before now. Instance clocks
// interleave on a shared timeline, so Advance is monotonic: a call
// with an older now than a previous call is a no-op.
func (s *Store) Advance(now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
}

// HostResident reports whether an adapter's content is host-resident
// at now, without touching LRU order or stats (the admission stage
// uses it to stamp cold-start arrivals).
func (s *Store) HostResident(id int, now time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return true // uncatalogued adapters are host-resident by definition
	}
	if ca := s.ch.adapters[ent.Digest]; ca != nil {
		return ca.resident
	}
	// Not materialized, but family siblings may already hold every
	// chunk — a demand would hit without touching the link.
	return allChunksResident(s.chunkListOf(ent))
}

// Demand is the demand path: the serving engine needs an adapter on
// the GPU and asks the host tier for it. A hit touches the LRU (and
// may rotate the tenant's quota pins onto it); a miss starts a remote
// fetch when one is not already in flight and the tier can reserve
// room. eta is the fetch completion time for StatusFetching and
// StatusStarted. queued is the marginal cost: the bytes this call
// actually put on the remote links (0 for hits, fetches already in
// flight, and denials) — only the missing chunks, so deduped bytes
// count once, which is what fetch-byte accounting and cost-ranked
// victim selection must see.
func (s *Store) Demand(id int, now time.Duration) (st Status, eta time.Duration, queued int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return StatusUncatalogued, 0, 0
	}
	return s.ensure(ent, now, true)
}

// Prefetch speculatively warms the host tier for an adapter expected
// to be demanded soon. Resident content is touched (it is about to be
// hot); in-flight fetches are left alone; otherwise a fetch starts if
// room can be reserved. It never counts demand hits or misses.
// started reports whether this call put a new fetch on the link; eta
// is its completion time.
func (s *Store) Prefetch(id int, now time.Duration) (eta time.Duration, started bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return 0, false
	}
	st, done, _ := s.ensure(ent, now, false)
	if st == StatusStarted {
		return done, true
	}
	return 0, false
}
