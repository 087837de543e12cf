//valora:parallel worker-pool drain of independent processes: this file owns the worker goroutines and their shared claim cursor; each process is drained by exactly one worker and errors are reported in process order, so the interleaving is unobservable
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RunIndependent is the parallel counterpart of Timeline for a run
// whose processes never observe one another: it drains every process
// to completion, each with an optional private input Feed (feeds[i]
// is nil for a process with none). Because no process sees another,
// draining each one alone gives it exactly the history a shared
// Timeline would, and which goroutine drains it is unobservable.
// Draining one process at a time also keeps its working set cache-hot
// and skips the Timeline's global process selection.
//
// The processes are drained on min(workers, len(procs)) goroutines,
// each claiming the next undrained process through one atomic cursor.
// Every process is drained even when another fails; the error returned
// is the lowest-indexed failing process's, so a failed run fails
// identically under any interleaving.
func RunIndependent(procs []Process, feeds []Feed, workers int) error {
	errs := make([]error, len(procs))
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(procs) {
				return
			}
			errs[i] = drainProcess(i, procs[i], feeds[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(procs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain() // the calling goroutine is one of the workers
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drainProcess advances p, interleaved with deliveries from its feed f
// (nil for none), until both are exhausted. A delivery and a step at
// the same time go to the feed, mirroring Timeline's
// arrival-before-step rule.
func drainProcess(i int, p Process, f Feed) error {
	for {
		pa := p.NextEventAt()
		fa := Never
		if f != nil {
			fa = f.NextAt()
		}
		if fa != Never && (pa == Never || fa <= pa) {
			if err := f.Deliver(); err != nil {
				return err
			}
			continue
		}
		if pa == Never {
			return nil
		}
		progressed, err := p.Step()
		if err != nil {
			return err
		}
		if !progressed {
			return fmt.Errorf("sim: process %d advertised an event at %v but made no progress", i, pa)
		}
	}
}
