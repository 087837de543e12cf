package registry

import "time"

// transfer is one chunk's journey over a registry link. A transfer is
// either in service (start <= now; the link serializes, so at most the
// queue head can be) or queued with a provisional schedule that every
// reschedule re-derives under the fair-share discipline.
type transfer struct {
	ch        *chunk
	tenant    string
	tag       int   // index of the tenant's tag on the transfer's link
	demand    bool  // demand-class (a queued request waits on it)
	seq       int64 // global enqueue order, the FIFO tie-break
	scheduled bool  // start/done assigned (zero times are valid, so a flag)
	start     time.Duration
	done      time.Duration
}

// link is one registry replica's serialized transfer pipe with
// per-tenant weighted fair queuing: when the wire frees up, the next
// transfer comes from the eligible tenant with the least weighted
// service so far (bytes served / weight), demand class before prefetch
// class within a tenant, FIFO within a class. One tenant's cold
// prefetch sweep therefore cannot push another tenant's demand fetches
// to the back of the queue — each tenant's backlog drains at its
// weighted share of the link.
type link struct {
	id    int
	queue []*transfer // schedule order; queue[0] may be in service
	// tags holds one fair-share tag per tenant seen on the link, in
	// first-enqueue order; a transfer indexes its tenant's tag. Links
	// see few tenants, so a new tenant's tag is found by a scan.
	tags    []tenantTag
	pending int64       // bytes queued but not yet completed
	order   []*transfer // reschedule scratch
	// stale marks a schedule that transfers added since the last
	// reschedule have outdated (Store.startFetch batches them).
	stale bool
}

// tenantTag is one tenant's fair-share state on a link.
type tenantTag struct {
	tenant string
	weight float64 // fair-share weight (weightOf), resolved once
	// served accumulates weighted bytes served (bytes / weight), the
	// fair-share basis.
	served float64
	// virt is reschedule's scratch: weighted bytes on the wire or
	// scheduled ahead of the transfer being placed.
	virt float64
}

func newLink(id int) *link {
	return &link{id: id}
}

// weightOf resolves a tenant's fair-share weight (default 1).
func weightOf(weights map[string]float64, tenant string) float64 {
	if w, ok := weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// tagOf returns the index of tenant's tag, adding one on first sight.
func (l *link) tagOf(tenant string, cfg *Config) int {
	for i := range l.tags {
		if l.tags[i].tenant == tenant {
			return i
		}
	}
	l.tags = append(l.tags, tenantTag{tenant: tenant, weight: weightOf(cfg.LinkWeights, tenant)})
	return len(l.tags) - 1
}

// add queues a transfer without re-deriving the schedule. A tenant
// arriving with an empty per-link backlog has its service tag bumped
// to the least tag among currently-backlogged tenants (the start-time
// fair-queuing arrival rule): an idle spell earns no banked deficit,
// so a freshly-arriving sweep cannot monopolize the wire until it
// "catches up" — which is exactly how it would starve the other
// tenants' demand fetches.
//
//valora:hotpath
func (l *link) add(t *transfer, cfg *Config) {
	t.tag = l.tagOf(t.tenant, cfg)
	backlogged := false
	minTag, haveTag := 0.0, false
	for _, q := range l.queue {
		if q.tag == t.tag {
			backlogged = true
		}
		tag := l.tags[q.tag].served
		if !haveTag || tag < minTag {
			minTag, haveTag = tag, true
		}
	}
	if tt := &l.tags[t.tag]; !backlogged && haveTag && tt.served < minTag {
		tt.served = minTag
	}
	l.queue = append(l.queue, t)
	l.pending += t.ch.bytes
}

// reschedule re-derives the fair-share schedule from now: the transfer
// already on the wire (head with start <= now) keeps its slot, every
// queued transfer behind it is re-ordered by weighted fair queuing and
// its start/done recomputed back-to-back. Chunk transfer time is pure
// wire time (bytes/bandwidth); the per-fetch RemoteLatency is charged
// once per adapter fetch, at completion, not once per chunk.
//
//valora:hotpath
func (l *link) reschedule(now time.Duration, cfg *Config) {
	l.stale = false
	keep := 0
	free := now
	if len(l.queue) > 0 && l.queue[0].scheduled && l.queue[0].start <= now {
		keep = 1
		free = l.queue[0].done
	}
	rest := l.queue[keep:]
	if len(rest) == 0 {
		return
	}
	// Virtual service baseline: lifetime served bytes per tenant,
	// weighted; the in-service transfer is already charged at pop time
	// via served, so charge it here explicitly while it occupies the
	// wire to keep its tenant from double-dipping.
	for i := range l.tags {
		l.tags[i].virt = 0
	}
	if keep == 1 {
		h := l.queue[0]
		l.tags[h.tag].virt += float64(h.ch.bytes) / l.tags[h.tag].weight
	}
	// remaining holds the unplaced transfers in queue order; each pass
	// places the next one at l.queue[next].
	remaining := append(l.order[:0], rest...)
	l.order = remaining
	for next := keep; len(remaining) > 0; next++ {
		// Per tenant, the eligible candidate is its first transfer in
		// (demand-first, then seq) order; among tenants, pick the least
		// weighted lifetime+virtual service, tie-broken by tenant name
		// then seq so the schedule is a pure function of the queue.
		best := -1
		for i, t := range remaining {
			if best < 0 {
				best = i
				continue
			}
			b := remaining[best]
			if t.tag == b.tag {
				if less := transferClassLess(t, b); less {
					best = i
				}
				continue
			}
			// served and virt are already weight-normalized (bytes/weight
			// accumulated at pop and below), so they compare directly.
			tw := l.tags[t.tag].served + l.tags[t.tag].virt
			bw := l.tags[b.tag].served + l.tags[b.tag].virt
			switch {
			case tw < bw:
				best = i
			case tw == bw && t.tenant < b.tenant:
				best = i
			}
		}
		t := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		t.scheduled = true
		t.start = free
		t.done = free + time.Duration(float64(t.ch.bytes)/cfg.RemoteBandwidth*float64(time.Second))
		free = t.done
		l.tags[t.tag].virt += float64(t.ch.bytes) / l.tags[t.tag].weight
		l.queue[next] = t
	}
}

// transferClassLess orders two same-tenant transfers: demand class
// first, FIFO (enqueue seq) within a class.
func transferClassLess(a, b *transfer) bool {
	if a.demand != b.demand {
		return a.demand
	}
	return a.seq < b.seq
}

// head reports the link's next completion, or false when idle.
func (l *link) head() (*transfer, bool) {
	if len(l.queue) == 0 {
		return nil, false
	}
	return l.queue[0], true
}

// pop completes the head transfer, charging its tenant's weighted
// service.
//
//valora:hotpath
func (l *link) pop() *transfer {
	t := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue = l.queue[:len(l.queue)-1]
	l.pending -= t.ch.bytes
	tt := &l.tags[t.tag]
	tt.served += float64(t.ch.bytes) / tt.weight
	return t
}
