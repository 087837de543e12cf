package registry

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"valora/internal/sim"
	"valora/internal/trace"
)

// This file is the host tier. The store content-addresses each
// adapter as an ordered list of chunks (catalog.go): Config.ChunkSize
// bytes each, or the whole adapter as one chunk when ChunkSize is 0.
// Residency is refcounted at the chunk level — an adapter is host-hit
// iff all its chunks are resident, eviction frees only chunks no
// resident adapter references — and the remote side is R replica
// links, each a per-tenant weighted fair queue (link.go), that
// transfer only the chunks not already resident or in flight. Family
// siblings share their base-delta prefix chunks, so a sibling of a
// warm adapter fetches only its private tail.

// chunk is one content-addressed span of adapter bytes in the host
// tier.
type chunk struct {
	digest uint64
	bytes  int64
	// refs counts the resident and fetching adapters (and family
	// prefix warm-set objects) whose chunk list includes this chunk. A
	// chunk is freed exactly when its refcount drops to zero, so a
	// chunk referenced by any resident adapter can never be evicted.
	refs     int
	resident bool
	fetching bool
	tr       *transfer // the queued/in-flight transfer while fetching: &xfer or nil
	xfer     transfer  // storage for the chunk's one transfer at a time
	// waiters lists the fetching adapters awaiting this chunk, each
	// once. It starts on waiter1, so a chunk's first waiter costs no
	// allocation. A landing or a discard empties it but keeps its
	// capacity, so refetching the chunk appends without allocating.
	waiters []*chunkAdapter
	waiter1 [1]*chunkAdapter
}

// startTransfer points the chunk's transfer at a fresh journey in its
// own storage; the chunk has no other transfer queued or in flight.
func (c *chunk) startTransfer(tenant string, demand bool, seq int64) *transfer {
	c.xfer = transfer{ch: c, tenant: tenant, demand: demand, seq: seq}
	c.tr = &c.xfer
	return c.tr
}

// chunkAdapter is one adapter's (or family warm-set prefix's) state in
// the host tier. Quota pinning and per-tenant residency accounting
// stay at adapter granularity, in nominal adapter bytes; capacity
// accounting is the deduplicated sum of resident chunk bytes.
type chunkAdapter struct {
	key    uint64 // the adapter's content digest, or the synthetic family-prefix key
	tenant string
	family string
	bytes  int64 // nominal bytes (quota/pin accounting)
	chunks []*chunk

	resident bool
	fetching bool
	demand   bool
	pinned   bool

	missing     int           // chunks not yet resident (while fetching)
	done        time.Duration // completion estimate / time (while fetching)
	lastLand    time.Duration // latest awaited-chunk landing seen
	requested   time.Duration // fetch request time (fetch observer)
	queuedBytes int64         // bytes this fetch put on the links

	// prev and next link the intrusive LRU list (resident entries
	// only); next also chains the spare list.
	prev, next *chunkAdapter
}

// chunkState is the store's chunk residency, LRU and link machinery.
type chunkState struct {
	chunks   map[uint64]*chunk
	adapters map[uint64]*chunkAdapter
	lists    map[uint64][]*chunk // memoized chunk list per adapter digest
	root     chunkAdapter        // LRU sentinel: root.next = LRU, root.prev = MRU
	used     int64               // Σ resident chunk bytes (deduplicated)
	links    []*link
	inflight []*chunkAdapter // fetching adapters
	seq      int64           // transfer enqueue sequence
	// spare chains, through next, the records of evicted adapters and
	// aborted fetches for reuse: a record goes there only once no
	// index, in-flight list, LRU list or waiter slice holds it, so a
	// fetch or materialization allocates one only when the live count
	// reaches a new peak.
	spare *chunkAdapter
}

// evictWindow bounds how many LRU-end eviction candidates the
// marginal-bytes victim ranking considers per eviction: within the
// window the victim freeing the most actual (unique) bytes goes first,
// so eviction pressure lands on private tails before it touches warm
// shared prefixes whose eviction would free nothing.
const evictWindow = 4

func newChunkState(replicas int) *chunkState {
	ch := &chunkState{
		chunks:   make(map[uint64]*chunk),
		adapters: make(map[uint64]*chunkAdapter),
		lists:    make(map[uint64][]*chunk),
	}
	ch.root.prev = &ch.root
	ch.root.next = &ch.root
	for i := 0; i < replicas; i++ {
		ch.links = append(ch.links, newLink(i))
	}
	return ch
}

// chunkSize is an entry's chunk granule: Config.ChunkSize, or the
// adapter's whole size when that is 0 (one chunk per adapter).
func (s *Store) chunkSize(ent *Entry) int64 {
	if s.cfg.ChunkSize > 0 {
		return s.cfg.ChunkSize
	}
	return max(ent.Adapter.Bytes(), 1)
}

// chunkListOf materializes (and memoizes) an entry's chunk objects.
// The list's new chunks share one slab: the index never deletes a
// chunk, so the slab lives exactly as long as each chunk would.
func (s *Store) chunkListOf(ent *Entry) []*chunk {
	ch := s.ch
	if list, ok := ch.lists[ent.Digest]; ok {
		return list
	}
	spans := chunkSpans(ent, s.chunkSize(ent))
	fresh := 0
	for _, sp := range spans {
		if _, ok := ch.chunks[sp.Digest]; !ok {
			fresh++
		}
	}
	slab := make([]chunk, fresh)
	list := make([]*chunk, len(spans))
	for i, sp := range spans {
		c, ok := ch.chunks[sp.Digest]
		if !ok {
			c = &slab[0]
			slab = slab[1:]
			c.digest, c.bytes = sp.Digest, sp.Bytes
			c.waiters = c.waiter1[:0]
			ch.chunks[sp.Digest] = c
		}
		list[i] = c
	}
	ch.lists[ent.Digest] = list
	return list
}

// allChunksResident reports whether every chunk of the list is
// host-resident.
//
//valora:hotpath
func allChunksResident(list []*chunk) bool {
	for _, c := range list {
		if !c.resident {
			return false
		}
	}
	return true
}

// pushMRU links a resident adapter at the most-recently-used end of
// the LRU list.
//
//valora:hotpath
func (s *Store) pushMRU(ca *chunkAdapter) {
	ch := s.ch
	ca.prev = ch.root.prev
	ca.next = &ch.root
	ca.prev.next = ca
	ch.root.prev = ca
}

// touch marks a resident adapter most recently used and rotates its
// tenant's quota pins onto it — the resolve hot path.
//
//valora:hotpath
func (s *Store) touch(ca *chunkAdapter) {
	if s.ch.root.prev != ca {
		ca.prev.next = ca.next
		ca.next.prev = ca.prev
		s.pushMRU(ca)
	}
	s.promote(ca)
}

// ensure is the demand/prefetch path (Demand and Prefetch both land
// here; demand selects the link class and the hit/miss counters).
// queued is the bytes this call put on the links.
func (s *Store) ensure(ent *Entry, now time.Duration, demand bool) (st Status, eta time.Duration, queued int64) {
	ch := s.ch
	if ca := ch.adapters[ent.Digest]; ca != nil {
		if ca.resident {
			if demand {
				s.stats.HostHits++
			}
			s.touch(ca)
			return StatusHit, 0, 0
		}
		if demand && !ca.demand {
			// A demand caught up with its speculative prefetch: its
			// not-yet-started chunk transfers upgrade to demand class
			// and jump the prefetch backlog within the tenant's queue.
			s.promoteInflight(ca, now)
		}
		return StatusFetching, ca.done, 0
	}
	list := s.chunkListOf(ent)
	if allChunksResident(list) {
		// Every chunk is already host-resident via family siblings (or
		// the family warm set): the adapter materializes as resident
		// without touching the link at all — the dedup host hit.
		ca := s.materializeResident(ent, list)
		if demand {
			s.stats.HostHits++
			s.stats.DedupHits++
		}
		s.stats.DedupedBytes += ca.bytes
		s.touch(ca)
		return StatusHit, 0, 0
	}
	if ent.Adapter.Bytes() > s.cfg.HostCapacity {
		// Larger than the whole tier: no eviction can ever make room.
		if demand {
			s.stats.FetchDenied++
		}
		return StatusDenied, sim.Never, 0
	}
	ca, ok := s.startFetch(ent.Digest, ent.Tenant, ent.Family, ent.Adapter.Bytes(), list, now, demand)
	if !ok {
		if demand {
			s.stats.FetchDenied++
		}
		return StatusDenied, 0, 0
	}
	if demand {
		s.stats.HostMisses++
		s.stats.Fetches++
		s.stats.FetchBytes += ca.queuedBytes
	} else {
		s.stats.PrefetchFetches++
		s.stats.PrefetchBytes += ca.queuedBytes
	}
	s.stats.DedupedBytes += ca.bytes - ca.queuedBytes
	return StatusStarted, ca.done, ca.queuedBytes
}

// newChunkAdapter returns a record holding v, reusing a spare one
// when there is one.
func (s *Store) newChunkAdapter(v chunkAdapter) *chunkAdapter {
	ca := s.ch.spare
	if ca != nil {
		s.ch.spare = ca.next
	} else {
		ca = new(chunkAdapter)
	}
	*ca = v
	return ca
}

// recycle puts a record that nothing holds any more on the spare
// list: evict and abortFetch call it last, once the record is out of
// the index, the in-flight list, the LRU list and every waiter slice.
func (s *Store) recycle(ca *chunkAdapter) {
	*ca = chunkAdapter{next: s.ch.spare}
	s.ch.spare = ca
}

// materializeResident creates a resident adapter entry over
// already-resident chunks (taking its refs) and links it MRU.
func (s *Store) materializeResident(ent *Entry, list []*chunk) *chunkAdapter {
	ca := s.newChunkAdapter(chunkAdapter{key: ent.Digest, tenant: ent.Tenant, family: ent.Family,
		bytes: ent.Adapter.Bytes(), chunks: list, resident: true})
	for _, c := range list {
		c.refs++
	}
	s.ch.adapters[ent.Digest] = ca
	s.pushMRU(ca)
	s.tenantResident[ca.tenant] += ca.bytes
	s.pinIfFree(ca)
	return ca
}

// startFetch puts an adapter fetch in flight: refs are taken on
// every chunk up front (a mid-fetch eviction can therefore never free
// a chunk the fetch counts on), transfers are enqueued for exactly the
// chunks that are neither resident nor already in flight, each on the
// replica link with the least pending bytes, and the adapter completes
// one RemoteLatency after its last awaited chunk lands (the per-fetch
// round trip is charged once per adapter, not once per chunk).
//
// Each touched link is rescheduled once, after the loop, rather than
// per chunk. reschedule is a pure function of the queue, the tags and
// whether the head is on the wire, so the result is the per-chunk
// path's: on an idle link the fetch's first chunk still takes the
// head, since its later chunks (same tenant and class, later seq)
// never outrank it. The sibling-upgrade check reads a transfer's
// start, and no link is stale when it runs: a chunk riding a
// sibling's transfer is a family-prefix chunk, every chunk ahead of it
// in the list is a lower prefix index the sibling fetch holds refs on,
// so each is resident or in flight and this fetch has enqueued nothing
// yet.
func (s *Store) startFetch(key uint64, tenant, family string, nominal int64, list []*chunk, now time.Duration, demand bool) (*chunkAdapter, bool) {
	ch := s.ch
	if len(ch.inflight) >= s.cfg.MaxInflight {
		return nil, false
	}
	var need int64
	for _, c := range list {
		if !c.resident {
			need += c.bytes
		}
	}
	if need+s.pinnedB > s.cfg.HostCapacity {
		// Hopeless: even evicting every unpinned resident chunk cannot
		// host the missing bytes alongside the pinned set.
		return nil, false
	}
	ca := s.newChunkAdapter(chunkAdapter{key: key, tenant: tenant, family: family, bytes: nominal,
		chunks: list, fetching: true, demand: demand, requested: now, lastLand: now})
	enqueued, upgraded := false, false
	for _, c := range list {
		c.refs++
		if c.resident {
			continue
		}
		ca.missing++
		c.waiters = append(c.waiters, ca)
		if c.fetching {
			// Riding a sibling's in-flight transfer; a demand waiting on
			// a prefetch-class transfer upgrades its class.
			if demand && c.tr != nil && !c.tr.demand && c.tr.start > now {
				c.tr.demand = true
				upgraded = true
			}
			continue
		}
		c.fetching = true
		ch.seq++
		l := s.leastPendingLink()
		l.add(c.startTransfer(tenant, demand, ch.seq), &s.cfg)
		l.stale = true
		if s.eachChunk {
			l.reschedule(now, &s.cfg)
		}
		enqueued = true
		ca.queuedBytes += c.bytes
		s.stats.ChunkFetches++
		s.stats.ChunkFetchBytes += c.bytes
	}
	ch.adapters[key] = ca
	ch.inflight = append(ch.inflight, ca)
	for _, l := range ch.links {
		if upgraded || l.stale {
			l.reschedule(now, &s.cfg)
		}
	}
	if enqueued || upgraded {
		s.refreshChunkDeadlines()
	} else {
		s.refreshAdapterDone(ca)
	}
	return ca, true
}

// leastPendingLink picks the replica link with the least pending
// bytes (lowest id on ties) — the deterministic load-balancing rule
// that spreads one adapter's chunks across replicas.
func (s *Store) leastPendingLink() *link {
	best := s.ch.links[0]
	for _, l := range s.ch.links[1:] {
		if l.pending < best.pending {
			best = l
		}
	}
	return best
}

// promoteInflight upgrades an in-flight prefetch to demand class: its
// not-yet-started transfers re-rank within their tenant's fair queue
// (demand before prefetch) on every affected link.
func (s *Store) promoteInflight(ca *chunkAdapter, now time.Duration) {
	ca.demand = true
	changed := false
	for _, c := range ca.chunks {
		if c.fetching && c.tr != nil && !c.tr.demand && c.tr.start > now {
			c.tr.demand = true
			changed = true
		}
	}
	if changed {
		for _, l := range s.ch.links {
			l.reschedule(now, &s.cfg)
		}
		s.refreshChunkDeadlines()
	}
}

// refreshChunkDeadlines recomputes every in-flight adapter's
// completion estimate after a link reschedule.
func (s *Store) refreshChunkDeadlines() {
	for _, ca := range s.ch.inflight {
		s.refreshAdapterDone(ca)
	}
}

// refreshAdapterDone derives one fetching adapter's completion: one
// RemoteLatency past the latest of its awaited chunks' schedules (or
// past the last landing already seen, once everything is resident).
func (s *Store) refreshAdapterDone(ca *chunkAdapter) {
	m := ca.lastLand
	for _, c := range ca.chunks {
		if !c.resident && c.tr != nil && c.tr.done > m {
			m = c.tr.done
		}
	}
	ca.done = m + s.cfg.RemoteLatency
}

// advance is Advance without the lock, for the exported entry points
// that already hold it. It completes every chunk landing and adapter
// fetch due at or before now, in global event order: landings claim
// capacity (evicting for room), completions flip adapters resident
// and take quota pins. Completions sort before landings at equal
// instants so a just-finished adapter's pins are visible to the
// landing's eviction pass.
func (s *Store) advance(now time.Duration) {
	if now < s.advanced {
		return
	}
	s.advanced = now
	ch := s.ch
	for {
		// Earliest adapter completion among fully-landed fetches.
		var ca *chunkAdapter
		for _, f := range ch.inflight {
			if f.missing == 0 && f.done <= now {
				if ca == nil || f.done < ca.done || (f.done == ca.done && f.key < ca.key) {
					ca = f
				}
			}
		}
		// Earliest chunk landing across replica links.
		var l *link
		var tr *transfer
		for _, cand := range ch.links {
			h, ok := cand.head()
			if !ok || h.done > now {
				continue
			}
			if tr == nil || h.done < tr.done || (h.done == tr.done && cand.id < l.id) {
				l, tr = cand, h
			}
		}
		switch {
		case ca != nil && (tr == nil || ca.done <= tr.done):
			s.completeFetch(ca)
		case tr != nil:
			s.landChunk(l.pop())
		default:
			return
		}
	}
}

// landChunk claims capacity for a completed chunk transfer, evicting
// for room; when not even a full eviction pass can make room (the
// pinned set grew past the admission check), the transfer is
// discarded and every fetch awaiting the chunk is aborted — a live
// demand will retry.
func (s *Store) landChunk(tr *transfer) {
	c := tr.ch
	c.tr = nil
	c.fetching = false
	if s.ch.used+c.bytes > s.cfg.HostCapacity {
		s.evictFor(c.bytes)
	}
	if s.ch.used+c.bytes > s.cfg.HostCapacity {
		s.stats.Discarded++
		// Detach the waiters first: abortFetch removes its fetch from
		// the waiter slices of its chunks, and must not edit this one
		// under the loop. The emptied slice goes back for the next
		// fetch of the chunk.
		waiters := c.waiters
		c.waiters = nil
		for _, w := range waiters {
			s.abortFetch(w)
		}
		clear(waiters)
		c.waiters = waiters[:0]
		return
	}
	c.resident = true
	s.ch.used += c.bytes
	for _, w := range c.waiters {
		w.missing--
		w.lastLand = tr.done
		if w.missing == 0 {
			w.done = tr.done + s.cfg.RemoteLatency
		}
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// completeFetch flips a fully-landed fetch resident: LRU entry,
// per-tenant residency charge, a quota pin only from unspent guarantee
// (pins are stolen on demand hits, so one cold fetch cannot displace a
// proven-hot pin), and a row for the fetch observer.
func (s *Store) completeFetch(ca *chunkAdapter) {
	s.removeInflight(ca)
	ca.fetching = false
	ca.resident = true
	s.pushMRU(ca)
	s.tenantResident[ca.tenant] += ca.bytes
	s.pinIfFree(ca)
	if s.fetchObs != nil {
		s.fetchObs(trace.FetchRecord{
			Tenant:    ca.tenant,
			Family:    ca.family,
			Bytes:     ca.queuedBytes,
			Chunks:    len(ca.chunks),
			Demand:    ca.demand,
			Requested: ca.requested,
			Done:      ca.done,
		})
	}
}

// abortFetch unwinds a fetch whose awaited chunk was discarded: refs
// are dropped — freeing chunks nothing else references, including
// ones this fetch already landed — the in-flight entry disappears,
// and any remaining queued transfers this fetch alone was waiting on
// are cancelled. The record then goes on the spare list.
func (s *Store) abortFetch(ca *chunkAdapter) {
	if !ca.fetching {
		return
	}
	ca.fetching = false
	s.removeInflight(ca)
	delete(s.ch.adapters, ca.key)
	for _, c := range ca.chunks {
		s.release(c)
		if i := slices.Index(c.waiters, ca); i >= 0 {
			c.waiters = slices.Delete(c.waiters, i, i+1)
		}
		if c.fetching && len(c.waiters) == 0 {
			// Nothing waits on this transfer any more; cancel it.
			s.cancelTransfer(c)
		}
	}
	s.recycle(ca)
}

// cancelTransfer removes a chunk's queued transfer from its link. The
// transfer may already be in service; it is cancelled regardless —
// the link model does not bill partial transfers.
func (s *Store) cancelTransfer(c *chunk) {
	for _, l := range s.ch.links {
		for i, tr := range l.queue {
			if tr.ch == c {
				copy(l.queue[i:], l.queue[i+1:])
				l.queue = l.queue[:len(l.queue)-1]
				l.pending -= c.bytes
				l.reschedule(s.advanced, &s.cfg)
				c.fetching = false
				c.tr = nil
				s.refreshChunkDeadlines()
				return
			}
		}
	}
}

// Chunk objects stay in the index for their lifetime even at zero
// refs: memoized chunk lists (chunkListOf) hold pointers into them,
// so deleting one would let a re-fetch mint a second object for the
// same digest and double-count residency. The index is bounded by
// the catalog's chunk universe.

// freeableBytes reports how many bytes evicting ca would actually
// free: the chunks only it references. Shared prefix chunks of a
// family with other resident members free nothing.
func freeableBytes(ca *chunkAdapter) int64 {
	var b int64
	for _, c := range ca.chunks {
		if c.refs == 1 && c.resident {
			b += c.bytes
		}
	}
	return b
}

// protected reports whether an adapter sits inside its tenant's
// guaranteed+burst residency envelope (evicted only as a last resort).
func (s *Store) protected(ca *chunkAdapter) bool {
	q, ok := s.quotas[ca.tenant]
	if !ok {
		return false
	}
	return s.tenantResident[ca.tenant] <= q.GuaranteedBytes+q.BurstBytes
}

// evictFor frees resident adapters until need chunk bytes fit.
// Victims walk the LRU (a first pass takes only unprotected adapters,
// so tenants over their burst envelope lose residency first, a second
// takes any unpinned one; pinned adapters are never evicted), but
// within a small LRU-end window the candidate freeing the most actual
// bytes goes first — the marginal-cost ranking: evicting a
// fully-shared sibling frees nothing and costs a future dedup hit, so
// private tails go before warm shared prefixes.
func (s *Store) evictFor(need int64) {
	ch := s.ch
	for pass := 0; pass < 2 && ch.used+need > s.cfg.HostCapacity; pass++ {
		for ch.used+need > s.cfg.HostCapacity {
			var window [evictWindow]*chunkAdapter
			n := 0
			for ca := ch.root.next; ca != &ch.root && n < evictWindow; ca = ca.next {
				if ca.pinned || (pass == 0 && s.protected(ca)) {
					continue
				}
				window[n] = ca
				n++
			}
			if n == 0 {
				break
			}
			victim := window[0]
			best := freeableBytes(victim)
			for i := 1; i < n; i++ {
				if f := freeableBytes(window[i]); f > best {
					victim, best = window[i], f
				}
			}
			s.evict(victim)
		}
	}
}

// evict removes one resident adapter from the tier, freeing every
// chunk its departure leaves unreferenced, and puts its record on the
// spare list.
func (s *Store) evict(ca *chunkAdapter) {
	ca.prev.next = ca.next
	ca.next.prev = ca.prev
	ca.prev, ca.next = nil, nil
	ca.resident = false
	delete(s.ch.adapters, ca.key)
	s.tenantResident[ca.tenant] -= ca.bytes
	var freed int64
	for _, c := range ca.chunks {
		freed += s.release(c)
	}
	s.stats.Evictions++
	s.stats.EvictedBytes += freed
	s.recycle(ca)
}

// release drops one reference to a chunk and frees it from the tier
// when that was the last one and it is resident, reporting the bytes
// freed.
func (s *Store) release(c *chunk) int64 {
	c.refs--
	if c.refs > 0 || !c.resident {
		return 0
	}
	c.resident = false
	s.ch.used -= c.bytes
	s.stats.ChunkEvictions++
	return c.bytes
}

// removeInflight drops ca from the in-flight fetch list.
func (s *Store) removeInflight(ca *chunkAdapter) {
	for i, f := range s.ch.inflight {
		if f == ca {
			s.ch.inflight = append(s.ch.inflight[:i], s.ch.inflight[i+1:]...)
			return
		}
	}
}

// pinIfFree pins a resident adapter when its tenant has unspent
// guaranteed quota.
func (s *Store) pinIfFree(ca *chunkAdapter) {
	if ca.pinned {
		return
	}
	q, ok := s.quotas[ca.tenant]
	if !ok || q.GuaranteedBytes <= 0 || ca.bytes > q.GuaranteedBytes {
		return
	}
	if s.tenantPinned[ca.tenant]+ca.bytes <= q.GuaranteedBytes {
		ca.pinned = true
		s.tenantPinned[ca.tenant] += ca.bytes
		s.pinnedB += ca.bytes
	}
}

// promote rotates the tenant's quota pins onto a just-touched adapter:
// if the tenant has guaranteed bytes left the adapter is pinned
// outright; otherwise the tenant's least-recently-used pins are
// released until it fits. Recently-demanded adapters therefore hold
// the guaranteed residency — the pin set tracks the hot set as
// popularity drifts.
//
//valora:hotpath
func (s *Store) promote(ca *chunkAdapter) {
	if ca.pinned {
		return
	}
	q, ok := s.quotas[ca.tenant]
	if !ok || q.GuaranteedBytes <= 0 || ca.bytes > q.GuaranteedBytes {
		return
	}
	for s.tenantPinned[ca.tenant]+ca.bytes > q.GuaranteedBytes {
		v := s.lruPinned(ca.tenant, ca)
		if v == nil {
			return
		}
		s.unpin(v)
	}
	ca.pinned = true
	s.tenantPinned[ca.tenant] += ca.bytes
	s.pinnedB += ca.bytes
}

// unpin releases a quota pin. The adapter stays resident.
//
//valora:hotpath
func (s *Store) unpin(ca *chunkAdapter) {
	ca.pinned = false
	s.tenantPinned[ca.tenant] -= ca.bytes
	s.pinnedB -= ca.bytes
}

// lruPinned finds the tenant's least-recently-used pinned entry other
// than skip.
//
//valora:hotpath
func (s *Store) lruPinned(tenant string, skip *chunkAdapter) *chunkAdapter {
	for ca := s.ch.root.next; ca != &s.ch.root; ca = ca.next {
		if ca != skip && ca.pinned && ca.tenant == tenant {
			return ca
		}
	}
	return nil
}

// familyPrefixKey is the synthetic blob key of a family's shared
// chunk prefix warm-set object.
func familyPrefixKey(family string) uint64 {
	h := fnv.New64a()
	h.Write([]byte("famprefix:"))
	h.Write([]byte(family))
	return h.Sum64()
}

// PrefetchFamily speculatively warms a family's shared chunk prefix —
// the tree-structured warm set: the prefix materializes as its own
// refcounted, evictable resident object, so every member of a popular
// family subsequently fetches only its private tail. Resident
// prefixes are touched; in-flight ones left alone. started reports
// whether a new fetch went on the links.
func (s *Store) PrefetchFamily(family string, now time.Duration) (eta time.Duration, started bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	rep, ok := s.cat.FamilyRep(family)
	if !ok {
		return 0, false
	}
	sharedN := sharedChunkCount(rep, s.chunkSize(rep))
	if sharedN == 0 {
		return 0, false
	}
	key := familyPrefixKey(family)
	if ca := s.ch.adapters[key]; ca != nil {
		if ca.resident {
			s.touch(ca)
		}
		return 0, false
	}
	list := s.chunkListOf(rep)[:sharedN]
	var nominal int64
	for _, c := range list {
		nominal += c.bytes
	}
	if allChunksResident(list) {
		ca := s.newChunkAdapter(chunkAdapter{key: key, tenant: rep.Tenant, family: family, bytes: nominal, chunks: list, resident: true})
		for _, c := range list {
			c.refs++
		}
		s.ch.adapters[key] = ca
		s.pushMRU(ca)
		s.tenantResident[ca.tenant] += ca.bytes
		return 0, false
	}
	ca, ok := s.startFetch(key, rep.Tenant, family, nominal, list, now, false)
	if !ok {
		return 0, false
	}
	s.stats.PrefetchFetches++
	s.stats.PrefetchBytes += ca.queuedBytes
	s.stats.DedupedBytes += ca.bytes - ca.queuedBytes
	return ca.done, true
}

// FamilyOf reports the catalogued family of an adapter ("" when
// standalone or uncatalogued).
func (s *Store) FamilyOf(id int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return ""
	}
	return ent.Family
}

// CheckInvariants verifies the tier's bookkeeping: the adapter index
// holds exactly the LRU list's resident records and the in-flight
// fetches, chunk refcounts cover every resident and fetching reference
// and a resident chunk is always referenced, the used counter equals
// the resident chunk bytes and respects capacity, per-tenant
// pinned/resident sums match their counters and pinned bytes never
// exceed the guaranteed quota, and every link schedule is
// completion-sorted. Waiter slices list each in-flight fetch on every
// chunk it still awaits, exactly once, and nothing else; so a record
// on the spare list is in no index, list or waiter slice. Tests call
// it after every mutation.
func (s *Store) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.ch
	spare := make(map[*chunkAdapter]bool)
	for ca := ch.spare; ca != nil; ca = ca.next {
		if spare[ca] {
			return fmt.Errorf("registry: the spare record list cycles")
		}
		spare[ca] = true
	}
	refs := make(map[uint64]int)
	residentCount := 0
	pinned := make(map[string]int64)
	resident := make(map[string]int64)
	for ca := ch.root.next; ca != &ch.root; ca = ca.next {
		if spare[ca] {
			return fmt.Errorf("registry: resident entry %x is also on the spare list", ca.key)
		}
		if ch.adapters[ca.key] != ca {
			return fmt.Errorf("registry: LRU list entry %x not indexed", ca.key)
		}
		if !ca.resident || ca.fetching {
			return fmt.Errorf("registry: non-resident entry %x on the chunk LRU list", ca.key)
		}
		if ca.next.prev != ca || ca.prev.next != ca {
			return fmt.Errorf("registry: chunk LRU links broken at %x", ca.key)
		}
		residentCount++
		resident[ca.tenant] += ca.bytes
		if ca.pinned {
			pinned[ca.tenant] += ca.bytes
		}
		for _, c := range ca.chunks {
			refs[c.digest]++
			if !c.resident {
				return fmt.Errorf("registry: resident adapter %x references evicted chunk %x", ca.key, c.digest)
			}
		}
	}
	if len(ch.inflight) > s.cfg.MaxInflight {
		return fmt.Errorf("registry: %d adapter fetches in flight, bound is %d", len(ch.inflight), s.cfg.MaxInflight)
	}
	inflight := make(map[*chunkAdapter]bool, len(ch.inflight))
	for _, ca := range ch.inflight {
		if ca.resident || !ca.fetching {
			return fmt.Errorf("registry: in-flight entry %x not in fetching state", ca.key)
		}
		if spare[ca] {
			return fmt.Errorf("registry: in-flight entry %x is also on the spare list", ca.key)
		}
		if inflight[ca] {
			return fmt.Errorf("registry: in-flight entry %x listed twice", ca.key)
		}
		inflight[ca] = true
		if ch.adapters[ca.key] != ca {
			return fmt.Errorf("registry: in-flight entry %x not indexed", ca.key)
		}
		if ca.pinned {
			return fmt.Errorf("registry: in-flight entry %x is pinned", ca.key)
		}
		missing := 0
		for _, c := range ca.chunks {
			refs[c.digest]++
			if !c.resident {
				missing++
				if !c.fetching {
					return fmt.Errorf("registry: fetch %x awaits chunk %x that is neither resident nor fetching", ca.key, c.digest)
				}
				if !slices.Contains(c.waiters, ca) {
					return fmt.Errorf("registry: fetch %x awaits chunk %x but is not among its waiters", ca.key, c.digest)
				}
			}
		}
		if missing != ca.missing {
			return fmt.Errorf("registry: fetch %x counts %d missing chunks, list says %d", ca.key, ca.missing, missing)
		}
	}
	if len(ch.adapters) != residentCount+len(ch.inflight) {
		return fmt.Errorf("registry: adapter index holds %d entries, %d resident and %d in flight", len(ch.adapters), residentCount, len(ch.inflight))
	}
	var usedBytes int64
	for digest, c := range ch.chunks {
		if c.digest != digest {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
			return fmt.Errorf("registry: chunk %x indexed under %x", c.digest, digest)
		}
		if c.refs < 0 {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
			return fmt.Errorf("registry: chunk %x refcount %d < 0", c.digest, c.refs)
		}
		if c.refs < refs[digest] {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
			return fmt.Errorf("registry: chunk %x refcount %d below the %d resident/fetching references", c.digest, c.refs, refs[digest])
		}
		for i, w := range c.waiters {
			if !w.fetching || !inflight[w] {
				//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
				return fmt.Errorf("registry: chunk %x waiter %x is not an in-flight fetch", c.digest, w.key)
			}
			if c.resident {
				//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
				return fmt.Errorf("registry: resident chunk %x still has waiter %x", c.digest, w.key)
			}
			if slices.Contains(c.waiters[i+1:], w) {
				//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
				return fmt.Errorf("registry: fetch %x waits twice on chunk %x", w.key, c.digest)
			}
		}
		if c.resident {
			if c.refs == 0 {
				//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
				return fmt.Errorf("registry: resident chunk %x has no references and can never be evicted", c.digest)
			}
			usedBytes += c.bytes
		}
	}
	if usedBytes != ch.used {
		return fmt.Errorf("registry: chunk used=%d but resident chunk bytes sum to %d", ch.used, usedBytes)
	}
	if ch.used > s.cfg.HostCapacity {
		return fmt.Errorf("registry: chunk tier over-committed: used=%d > capacity=%d", ch.used, s.cfg.HostCapacity)
	}
	var pinnedTotal int64
	for _, b := range pinned {
		pinnedTotal += b
	}
	if pinnedTotal != s.pinnedB {
		return fmt.Errorf("registry: pinned counter %d, chunk list says %d", s.pinnedB, pinnedTotal)
	}
	for t, b := range pinned {
		if s.tenantPinned[t] != b {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating tenant the error names, never pass/fail
			return fmt.Errorf("registry: tenant %q pinned counter %d, chunk list says %d", t, s.tenantPinned[t], b)
		}
		if q, ok := s.quotas[t]; ok && b > q.GuaranteedBytes {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating tenant the error names, never pass/fail
			return fmt.Errorf("registry: tenant %q pinned %d bytes over guaranteed %d", t, b, q.GuaranteedBytes)
		}
	}
	for t, c := range s.tenantResident {
		if c != resident[t] {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating tenant the error names, never pass/fail
			return fmt.Errorf("registry: tenant %q resident counter %d, chunk list says %d", t, c, resident[t])
		}
	}
	for _, l := range ch.links {
		last := time.Duration(-1)
		for i, tr := range l.queue {
			if i > 0 && tr.done < last {
				return fmt.Errorf("registry: link %d schedule out of completion order", l.id)
			}
			last = tr.done
			if !tr.ch.fetching || tr.ch.tr != tr {
				return fmt.Errorf("registry: link %d holds a transfer for chunk %x not marked fetching", l.id, tr.ch.digest)
			}
		}
	}
	return nil
}
