//valora:parallel epoch-barrier shard engine with work stealing: this file owns the worker goroutines, their barrier, and the atomic steal cursors; determinism is restored by the conservative horizon and the canonical (At, Shard, Proc, Seq) mail merge
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel counterpart of Timeline: a cluster's
// processes are partitioned into shards, each advanced up to an epoch
// horizon by a pool of worker goroutines, synchronized only at epoch
// barriers. The engine is conservative (in the parallel-discrete-event
// sense): a shard never advances past the horizon its coordinator
// proved free of incoming cross-shard events, so a sharded run's
// observable order is exactly the sequential Timeline's — outputs are
// bit-identical, shard count only changes wall-clock time.
//
// Three primitives compose the engine:
//
//   - Feed: a time-ordered private input stream for one process
//     (pre-routed request arrivals, or barrier-reserved admissions).
//     Deliveries obey Timeline's arrival-before-step tie rule.
//   - Shard: a group of mutually independent processes advanced up to
//     a horizon, with a per-process outbox for events that must cross
//     shards (drained and merged at barriers).
//   - ShardGroup: the barrier. AdvanceAll moves every shard to a
//     common horizon in parallel and returns once all are quiesced;
//     between calls the coordinator owns all shard state.
//
// Work stealing: within an epoch every process is independent (that is
// the epoch's correctness proof), so which goroutine advances a given
// process is unobservable. Each shard keeps a per-epoch claim cursor;
// a worker that drains its own shard claims whole-process advances
// from straggler shards via an atomic increment. Epoch wall time is
// therefore max-process-work bounded by total-work/NumCPU instead of
// the slowest shard's sum.

// Mail is one buffered cross-shard event: a payload stamped with the
// virtual time it occurred at, the emitting shard and process, and a
// per-process sequence number. (At, Shard, Proc, Seq) is the canonical
// merge order: merging every process's outbox under it yields one
// deterministic global stream regardless of how — or on which worker —
// the processes advanced in wall-clock time.
type Mail struct {
	At      time.Duration
	Shard   int
	Proc    int
	Seq     int
	Payload any
}

// Mailbox buffers Mail emitted by one process between barriers. It is
// not safe for concurrent use: exactly one goroutine (the worker that
// claimed the owning process this epoch, or the coordinator while the
// group is quiesced) may touch it at a time — the barrier and the
// claim cursor are the hand-offs.
type Mailbox struct {
	shard int
	proc  int
	seq   int
	mail  []Mail
}

// Emit buffers a payload stamped at virtual time at.
func (b *Mailbox) Emit(at time.Duration, payload any) {
	b.seq++
	b.mail = append(b.mail, Mail{At: at, Shard: b.shard, Proc: b.proc, Seq: b.seq, Payload: payload})
}

// Len reports the number of buffered items.
func (b *Mailbox) Len() int { return len(b.mail) }

// Drain returns the buffered mail sorted by (At, Seq) and empties the
// box. Emission may run out of time order (a process can emit for a
// virtual time earlier than a later emission), so Drain sorts; the
// sort is stable in Seq, preserving emission order at equal
// timestamps. The returned slice aliases the box's buffer — it is
// valid until the next Emit, which reuses the capacity instead of
// reallocating every barrier.
func (b *Mailbox) Drain() []Mail {
	out := b.mail
	b.mail = b.mail[:0]
	sortMail(out)
	return out
}

// MergeMail merges per-process mail streams (each already sorted, as
// Drain returns them) into one freshly allocated stream in the
// canonical (At, Shard, Proc, Seq) order. The target is preallocated
// to the total length; callers merging every barrier should prefer
// ShardGroup.DrainOutboxes, which reuses its merge buffer.
func MergeMail(streams ...[]Mail) []Mail {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]Mail, 0, total)
	for _, s := range streams {
		out = append(out, s...)
	}
	sortMail(out)
	return out
}

func mailLess(a, b Mail) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Seq < b.Seq
}

// sortMail sorts in place under the canonical order without the
// closure and interface allocations of sort.Slice — the merge runs on
// every barrier. Insertion sort: outbox streams are near-sorted
// (per-process emission is time-monotonic in practice) and barrier
// batches are small, so the quadratic worst case is not on the path.
func sortMail(ms []Mail) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && mailLess(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// Shard groups mutually independent processes, each with an optional
// private feed and its own outbox, advanced up to a caller-chosen
// horizon. Because the processes never observe one another, the engine
// is free to drain them one at a time (cache-friendly: one process's
// working set stays hot through its whole advance) and to hand
// different processes to different workers — the interleaving is
// unobservable, so the result is identical.
type Shard struct {
	id    int
	procs []Process
	feeds []Feed
	outs  []Mailbox
}

// NewShard builds an empty shard with the given identity (its rank in
// the canonical merge order).
func NewShard(id int) *Shard {
	return &Shard{id: id}
}

// ID reports the shard's identity.
func (sh *Shard) ID() int { return sh.id }

// Add registers a process and its private feed (nil for processes fed
// externally between barriers), returning the shard-local index.
func (sh *Shard) Add(p Process, f Feed) int {
	sh.procs = append(sh.procs, p)
	sh.feeds = append(sh.feeds, f)
	sh.outs = append(sh.outs, Mailbox{shard: sh.id, proc: len(sh.procs) - 1})
	return len(sh.procs) - 1
}

// EmitProc buffers a cross-shard event in process proc's outbox; the
// coordinator collects it at the next barrier (ShardGroup.DrainOutboxes)
// in canonical order. Emission is per-process so that work stealing
// cannot interleave two processes' sequence numbers wall-clock-
// dependently.
func (sh *Shard) EmitProc(proc int, at time.Duration, payload any) {
	sh.outs[proc].Emit(at, payload)
}

// DrainOutbox returns and empties the shard's buffered cross-shard
// events merged across its processes. Call only while the shard is
// quiesced.
func (sh *Shard) DrainOutbox() []Mail {
	streams := make([][]Mail, 0, len(sh.outs))
	for i := range sh.outs {
		if sh.outs[i].Len() > 0 {
			streams = append(streams, sh.outs[i].Drain())
		}
	}
	return MergeMail(streams...)
}

// NextAt reports the earliest pending occurrence (feed delivery or
// process step) across the shard, or Never when every process is idle
// and every feed exhausted. Call only while the shard is quiesced.
func (sh *Shard) NextAt() time.Duration {
	earliest := Never
	for i, p := range sh.procs {
		at := p.NextEventAt()
		if f := sh.feeds[i]; f != nil {
			if fa := f.NextAt(); fa != Never && (at == Never || fa < at) {
				at = fa
			}
		}
		if at != Never && (earliest == Never || at < earliest) {
			earliest = at
		}
	}
	return earliest
}

// AdvanceTo advances every process while its next occurrence is
// strictly before horizon (Never = no bound: drain fully). Occurrences
// at exactly the horizon are left for after the barrier — they must
// observe whatever the coordinator does there (the conservative
// lookahead contract). Ties between a feed delivery and a process step
// at the same time go to the feed, mirroring Timeline's
// arrival-before-step rule.
func (sh *Shard) AdvanceTo(horizon time.Duration) error {
	for i := range sh.procs {
		if err := sh.advanceProc(i, horizon); err != nil {
			return err
		}
	}
	return nil
}

func (sh *Shard) advanceProc(i int, horizon time.Duration) error {
	p, f := sh.procs[i], sh.feeds[i]
	for {
		pa := p.NextEventAt()
		fa := Never
		if f != nil {
			fa = f.NextAt()
		}
		var at time.Duration
		feedNext := false
		switch {
		case fa == Never && pa == Never:
			return nil
		case pa == Never:
			at, feedNext = fa, true
		case fa == Never:
			at = pa
		case fa <= pa: // arrival-before-step on ties
			at, feedNext = fa, true
		default:
			at = pa
		}
		if horizon != Never && at >= horizon {
			return nil
		}
		if feedNext {
			if err := f.Deliver(); err != nil {
				return err
			}
			continue
		}
		progressed, err := p.Step()
		if err != nil {
			return err
		}
		if !progressed {
			return fmt.Errorf("sim: shard %d process %d advertised an event at %v but made no progress", sh.id, i, at)
		}
	}
}

// ShardGroup drives a set of shards, one worker goroutine per shard,
// through a sequence of epoch barriers. Between AdvanceAll calls every
// worker is parked, so the coordinator may read and mutate any shard's
// processes directly; the command/acknowledge channel pair orders that
// access (happens-before) without further locking.
//
// Within an epoch the shards double as steal deques: worker i advances
// shard i's processes first, then scans the other shards and claims
// whole-process advances from whichever still has unclaimed work. A
// claim is an atomic cursor increment, so each process is advanced by
// exactly one worker per epoch; everything a worker did is published
// to the coordinator by the barrier itself.
type ShardGroup struct {
	shards []*Shard
	cmds   []chan time.Duration
	claims []atomic.Int64 // per-shard steal cursor, reset each epoch
	errs   [][]error      // per-(shard, process) outcome, written by the claiming worker
	wg     sync.WaitGroup
	live   bool
	merged []Mail // DrainOutboxes scratch, reused across barriers
}

// NewShardGroup builds a group over the given shards.
func NewShardGroup(shards ...*Shard) *ShardGroup {
	return &ShardGroup{
		shards: shards,
		cmds:   make([]chan time.Duration, len(shards)),
		claims: make([]atomic.Int64, len(shards)),
		errs:   make([][]error, len(shards)),
	}
}

// Shards exposes the member shards (coordinator access between
// barriers).
func (g *ShardGroup) Shards() []*Shard { return g.shards }

// Start launches one worker goroutine per shard. Idempotent.
func (g *ShardGroup) Start() {
	if g.live {
		return
	}
	g.live = true
	for i := range g.shards {
		g.cmds[i] = make(chan time.Duration)
		go g.worker(i)
	}
}

func (g *ShardGroup) worker(i int) {
	for horizon := range g.cmds[i] {
		g.advanceEpoch(i, horizon)
		g.wg.Done()
	}
}

// advanceEpoch is one worker's share of an epoch: drain the home shard,
// then steal from stragglers. Claim order starts at the home shard so
// an unloaded group degenerates to the one-worker-per-shard schedule.
func (g *ShardGroup) advanceEpoch(self int, horizon time.Duration) {
	n := len(g.shards)
	for off := 0; off < n; off++ {
		s := (self + off) % n
		sh := g.shards[s]
		for {
			k := int(g.claims[s].Add(1)) - 1
			if k >= len(sh.procs) {
				break
			}
			if err := sh.advanceProc(k, horizon); err != nil {
				g.errs[s][k] = err
			}
		}
	}
}

// Stop terminates the workers. The shards remain usable inline (via
// AdvanceAll, which falls back to sequential advancement when the
// group is stopped). Idempotent, and Start may be called again after.
func (g *ShardGroup) Stop() {
	if !g.live {
		return
	}
	g.live = false
	for i := range g.cmds {
		close(g.cmds[i])
		g.cmds[i] = nil
	}
}

// AdvanceAll is the epoch barrier: every process advances to horizon —
// workers steal across shards as they drain — and the call returns
// only when all are quiesced. Errors are reported deterministically:
// the failing process with the lowest (shard, process) identity wins,
// and every other process still completes its advance, so a sharded
// run fails identically regardless of worker interleaving or which
// worker ran which process. Without Start, shards advance inline in ID
// order (the degenerate single-goroutine schedule, also used as the
// sequential reference engine).
func (g *ShardGroup) AdvanceAll(horizon time.Duration) error {
	if !g.live {
		for _, sh := range g.shards {
			if err := sh.AdvanceTo(horizon); err != nil {
				return err
			}
		}
		return nil
	}
	for s, sh := range g.shards {
		g.claims[s].Store(0)
		if len(g.errs[s]) != len(sh.procs) {
			g.errs[s] = make([]error, len(sh.procs))
		} else {
			for k := range g.errs[s] {
				g.errs[s][k] = nil
			}
		}
	}
	g.wg.Add(len(g.shards))
	for i := range g.cmds {
		g.cmds[i] <- horizon
	}
	g.wg.Wait()
	for s := range g.errs {
		for _, err := range g.errs[s] {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// NextAt reports the earliest pending occurrence across all shards, or
// Never when the whole group is drained. Call only between barriers.
func (g *ShardGroup) NextAt() time.Duration {
	earliest := Never
	for _, sh := range g.shards {
		if at := sh.NextAt(); at != Never && (earliest == Never || at < earliest) {
			earliest = at
		}
	}
	return earliest
}

// DrainOutboxes collects every process's buffered cross-shard events
// in the canonical (At, Shard, Proc, Seq) order. The returned slice is
// the group's reusable merge buffer — consume it before the next call.
// Call only between barriers.
func (g *ShardGroup) DrainOutboxes() []Mail {
	g.merged = g.merged[:0]
	for _, sh := range g.shards {
		for i := range sh.outs {
			b := &sh.outs[i]
			g.merged = append(g.merged, b.mail...)
			b.mail = b.mail[:0]
		}
	}
	if len(g.merged) == 0 {
		return nil
	}
	sortMail(g.merged)
	return g.merged
}
