package lora

import (
	"fmt"
	"strings"
	"time"

	"valora/internal/idtab"
	"valora/internal/simgpu"
)

// CapacityError reports adapters a Require call could not make
// resident. Oversized adapters exceed the pool's whole capacity and
// can never be served from this pool (the server rejects their
// requests); Deferred adapters merely lost to the pinned working set
// of the current iteration and may fit on a later call.
type CapacityError struct {
	Capacity  int64
	Oversized []int
	Deferred  []int
}

func (e *CapacityError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lora: adapter pool (%d bytes) cannot host", e.Capacity)
	if len(e.Oversized) > 0 {
		fmt.Fprintf(&b, " oversized adapters %v", e.Oversized)
	}
	if len(e.Deferred) > 0 {
		if len(e.Oversized) > 0 {
			b.WriteString(" and")
		}
		fmt.Fprintf(&b, " adapters %v alongside the pinned working set", e.Deferred)
	}
	return b.String()
}

// noCopy is the zero-size marker `go vet`'s copylocks check recognizes
// (it has Lock and Unlock), like sync.WaitGroup's.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// poolEntry is one resident adapter on the intrusive LRU list.
type poolEntry struct {
	id    int
	bytes int64
	// callPin holds the epoch of the Require call that last pinned the
	// entry.
	callPin    uint64
	prev, next *poolEntry
}

// Pool is the unified GPU memory manager of §5: a fixed byte budget
// shared by LoRA adapters (the KV cache takes the rest of device
// memory), with LRU eviction and optionally asynchronous swapping.
//
// VaLoRA stores only A and B on device (tens of MB per adapter) and
// swaps them asynchronously, overlapping the copy with the previous
// iteration's compute; the dLoRA-style configuration swaps
// synchronously and pays the full PCIe latency on every miss.
//
// Residency is tracked by an intrusive doubly-linked LRU list indexed
// by an idtab.Table (a slice for the IDs below idtab.DenseIDs, a map
// for the rest), so lookup, touch, insert and evict are all O(1)
// and the common IDs hash nothing. Eviction skips the merged adapter
// (Merged) and the batch-resident adapters (an epoch mark each Require
// call stamps on its batch's entries).
//
// A Pool must not be copied: its LRU list links point into the
// original. The noCopy marker makes `go vet`'s copylocks check flag
// copies.
type Pool struct {
	_        noCopy
	GPU      *simgpu.GPU
	Capacity int64
	// Async enables overlap of swap-ins with ongoing compute
	// (VaLoRA). When false, every miss stalls the pipeline.
	Async bool
	// Contiguous indicates the pre-allocated contiguous weight layout
	// of §4.4.1; without it every swap-in pays an extra on-device
	// reshape copy (the dLoRA behaviour the paper criticizes).
	Contiguous bool
	// Merged is the ID of the adapter folded into the base weights, or
	// -1 for none. Eviction skips it, so the folded weights cannot be
	// swapped out from under the running mode.
	Merged int

	used    int64
	entries idtab.Table[*poolEntry]
	// root is the sentinel of the circular LRU list: root.next is the
	// least recently used entry, root.prev the most recently used.
	root poolEntry
	// epoch numbers Require calls; scratch holds the current call's
	// entries, aligned with its adapters.
	epoch   uint64
	scratch []*poolEntry
	// spare chains evicted entries through next for reuse: a swap-in
	// allocates an entry only when the resident count reaches a new
	// peak.
	spare *poolEntry

	swapIns   int
	swapBytes int64
	evictions int
	stalled   time.Duration
}

// NewPool builds an adapter pool with the given byte budget.
func NewPool(g *simgpu.GPU, capacity int64, async, contiguous bool) *Pool {
	p := &Pool{
		GPU:        g,
		Capacity:   capacity,
		Async:      async,
		Contiguous: contiguous,
		Merged:     -1,
	}
	p.root.next = &p.root
	p.root.prev = &p.root
	return p
}

// Resident reports whether an adapter is on device.
func (p *Pool) Resident(id int) bool { return p.entries.Get(id) != nil }

// ResidentCount reports the number of resident adapters.
func (p *Pool) ResidentCount() int { return p.entries.Len() }

// Used reports resident bytes.
func (p *Pool) Used() int64 { return p.used }

// SwapStats reports cumulative swap-ins, evictions, host→device bytes
// copied, and the total pipeline stall charged.
func (p *Pool) SwapStats() (swapIns, evictions int, bytes int64, stalled time.Duration) {
	return p.swapIns, p.evictions, p.swapBytes, p.stalled
}

// pinned reports whether eviction must skip e: it is the merged
// adapter, or the running Require call pinned it.
func (p *Pool) pinned(e *poolEntry) bool { return e.id == p.Merged || e.callPin == p.epoch }

// listRemove unlinks e from the LRU list.
func (p *Pool) listRemove(e *poolEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// listPushMRU links e at the most-recently-used end.
func (p *Pool) listPushMRU(e *poolEntry) {
	e.prev = p.root.prev
	e.next = &p.root
	e.prev.next = e
	p.root.prev = e
}

// touch marks a resident entry most recently used.
//
//valora:hotpath
func (p *Pool) touch(e *poolEntry) {
	if p.root.prev == e {
		return
	}
	p.listRemove(e)
	p.listPushMRU(e)
}

// evict removes a resident entry from the pool and keeps it on the
// spare list.
//
//valora:hotpath
func (p *Pool) evict(e *poolEntry) {
	p.listRemove(e)
	p.entries.Delete(e.id)
	p.used -= e.bytes
	p.evictions++
	e.next, p.spare = p.spare, e
}

// canMakeRoom reports whether evicting unpinned entries could free
// enough bytes for need. Require checks it before evicting so a
// swap-in that must be deferred anyway does not throw away residency
// (and charge re-swap stalls) for nothing.
func (p *Pool) canMakeRoom(need int64) bool {
	avail := p.Capacity - p.used
	for e := p.root.next; e != &p.root && avail < need; e = e.next {
		if !p.pinned(e) {
			avail += e.bytes
		}
	}
	return avail >= need
}

// evictUntil frees unpinned LRU entries until need bytes fit (or no
// evictable entry remains). It never touches pinned entries, so it can
// return without having made room.
func (p *Pool) evictUntil(need int64) {
	e := p.root.next
	for p.used+need > p.Capacity && e != &p.root {
		next := e.next
		if !p.pinned(e) {
			p.evict(e)
		}
		e = next
	}
}

// Require ensures every adapter in the batch is resident and returns
// the pipeline stall the swaps cause. overlapBudget is compute time
// the copies can hide behind when asynchronous swapping is enabled
// (typically the previous iteration's duration).
//
// All adapters of the batch are pinned for the duration of the call
// (an epoch mark on their entries), so a later
// swap-in can never evict an adapter made resident earlier in the same
// call. Adapters that cannot be hosted — larger than the
// whole pool, or blocked by the pinned working set — are left
// non-resident and reported through a *CapacityError; the pool never
// over-commits (Used() ≤ Capacity always holds).
//
//valora:hotpath
func (p *Pool) Require(adapters []*Adapter, overlapBudget time.Duration) (time.Duration, error) {
	p.epoch++
	entries := p.scratch[:0]
	for _, a := range adapters {
		var e *poolEntry
		if a != nil {
			if e = p.entries.Get(a.ID); e != nil {
				e.callPin = p.epoch
			}
		}
		entries = append(entries, e)
	}
	p.scratch = entries

	var copyTime time.Duration
	var oversized, deferred []int
	for i, a := range adapters {
		if a == nil {
			continue
		}
		e := entries[i]
		if e == nil {
			// Not resident when the call began; an earlier duplicate in
			// this batch may have swapped it in since.
			e = p.entries.Get(a.ID)
		}
		if e != nil {
			p.touch(e)
			continue
		}
		bytes := a.Bytes()
		if bytes > p.Capacity {
			//valora:allow hotpath -- cold path: reached only by adapters larger than the whole pool, whose requests the server then rejects; the steady path never allocates (allocgate_test.go pins it)
			oversized = append(oversized, a.ID)
			continue
		}
		if !p.canMakeRoom(bytes) {
			// The pinned working set blocks this swap-in; admitting
			// anyway would leave used > Capacity permanently visible,
			// and evicting first would throw residency away for
			// nothing. Defer untouched.
			//valora:allow hotpath -- cold path: reached only when the pinned working set blocks a swap-in; the steady path never allocates (allocgate_test.go pins it)
			deferred = append(deferred, a.ID)
			continue
		}
		p.evictUntil(bytes)
		if e = p.spare; e != nil {
			p.spare = e.next
		} else {
			//valora:allow hotpath -- fill phase: the spare list is empty only when the resident count reaches a new peak; a pool that churns reuses the entries its evictions freed (allocgate_test.go pins it)
			e = new(poolEntry)
		}
		*e = poolEntry{id: a.ID, bytes: bytes, callPin: p.epoch}
		p.entries.Set(a.ID, e)
		p.listPushMRU(e)
		p.used += bytes
		p.swapIns++
		p.swapBytes += bytes

		if p.Contiguous {
			// Unified memory pools stage adapters through pinned
			// buffers into pre-allocated contiguous slots.
			copyTime += p.GPU.HostToDevicePinned(bytes)
		} else {
			// Pageable copy plus an on-device gather into the
			// kernel-visible buffer.
			copyTime += p.GPU.HostToDevice(bytes) + p.GPU.DeviceCopy(bytes)
		}
	}

	var err error
	if len(oversized) > 0 || len(deferred) > 0 {
		//valora:allow hotpath -- cold path: the error only exists on capacity misses; with every adapter resident the nil error never boxes
		err = &CapacityError{Capacity: p.Capacity, Oversized: oversized, Deferred: deferred}
	}
	if copyTime == 0 {
		return 0, err
	}
	if p.Async {
		if copyTime <= overlapBudget {
			return 0, err
		}
		copyTime -= overlapBudget
	}
	p.stalled += copyTime
	return copyTime, err
}

// CheckInvariants verifies the pool's internal bookkeeping: the LRU
// list and the ID table describe the same resident set (every listed
// entry is indexed under its ID, and the table counts no more IDs than
// the list holds), used equals the sum of resident adapter bytes, and
// the budget is respected. Tests call it after every mutation;
// it is cheap enough (O(resident)) for that but not meant for
// per-iteration production use.
func (p *Pool) CheckInvariants() error {
	var sum int64
	n := 0
	for e := p.root.next; e != &p.root; e = e.next {
		if me := p.entries.Get(e.id); me != e {
			if me == nil {
				return fmt.Errorf("lora: pool list entry %d missing from index", e.id)
			}
			return fmt.Errorf("lora: pool index for %d points at a different entry", e.id)
		}
		if e.next.prev != e || e.prev.next != e {
			return fmt.Errorf("lora: pool list links broken at %d", e.id)
		}
		sum += e.bytes
		n++
	}
	if n != p.entries.Len() {
		return fmt.Errorf("lora: pool list has %d entries, index has %d", n, p.entries.Len())
	}
	if sum != p.used {
		return fmt.Errorf("lora: pool used=%d but resident bytes sum to %d", p.used, sum)
	}
	if p.used > p.Capacity {
		return fmt.Errorf("lora: pool over-committed: used=%d > capacity=%d", p.used, p.Capacity)
	}
	return nil
}
