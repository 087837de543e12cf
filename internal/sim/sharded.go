//valora:parallel epoch-barrier shard engine with work stealing: this file owns the worker goroutines, their barrier, and the atomic steal cursors; determinism is restored by the conservative horizon and by reporting errors in (shard, process) order
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
//     a horizon.
//   - ShardGroup: the barrier. AdvanceAll moves every shard to a
//     common horizon in parallel and returns once all are quiesced;
//     between calls the coordinator owns all shard state, so anything
//     a process recorded for it (in its feed, say) is read there.
//
// Work stealing: within an epoch every process is independent (that is
// the epoch's correctness proof), so which goroutine advances a given
// process is unobservable. Each shard keeps a per-epoch claim cursor;
// a worker that drains its own shard claims whole-process advances
// from straggler shards via an atomic increment. Epoch wall time is
// therefore max-process-work bounded by total-work/NumCPU instead of
// the slowest shard's sum.

// Shard groups mutually independent processes, each with an optional
// private feed, advanced up to a caller-chosen horizon. Because the processes never observe one another, the engine
// is free to drain them one at a time (cache-friendly: one process's
// working set stays hot through its whole advance) and to hand
// different processes to different workers — the interleaving is
// unobservable, so the result is identical.
type Shard struct {
	id    int
	procs []Process
	feeds []Feed
}

// NewShard builds an empty shard; id names it in errors.
func NewShard(id int) *Shard {
	return &Shard{id: id}
}

// Add registers a process and its private feed (nil for processes fed
// externally between barriers).
func (sh *Shard) Add(p Process, f Feed) {
	sh.procs = append(sh.procs, p)
	sh.feeds = append(sh.feeds, f)
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
