package sched

import (
	"time"

	"valora/internal/lora"
)

// VaLoRAPolicy implements Algorithm 1: serve in merged mode whenever
// the workload allows (fastest, zero overhead); when starvation
// appears, prefer the mixture mode (no merge→unmerge switch cost,
// less extra compute); fall back to unmerged mode when starvation is
// widespread.
//
// Decide runs once per scheduling iteration, so it is written to be
// allocation-free on the steady path: the starving set, the batch and
// the adapter-cohort counts live in scratch buffers reused across
// calls (cohort counts are epoch-versioned instead of cleared), and
// batch membership is tracked by an epoch mark on the requests
// themselves instead of a per-call set. The returned Decision.Batch
// aliases the policy's scratch buffer and is valid until the next
// Decide call — exactly the lifetime the serving loop needs.
type VaLoRAPolicy struct {
	// Theta is the credit tolerance θ: requests whose credit exceeds
	// it count as starving.
	Theta time.Duration
	// EstExec and SwitchLat feed the credit estimate (execution time
	// in the current mode and the mode-switch latency).
	EstExec   time.Duration
	SwitchLat time.Duration
	// DisableMixture is the deLoRA ablation arm: starvation falls
	// straight through to unmerged mode.
	DisableMixture bool
	// DeadlineCredit makes the starvation credit urgency-weighted: a
	// deadline-carrying request's tolerance θ shrinks linearly with its
	// remaining slack (floored at θ/10 once the deadline is at hand),
	// so tight-deadline requests count as starving sooner and jump the
	// batch while best-effort traffic keeps the full tolerance. Off by
	// default: the credit function is then exactly Algorithm 1's.
	DeadlineCredit bool
	// Preempt enables displacement decisions: when a starving
	// deadline-carrying request is stuck in the Waiting backlog, Decide
	// returns an Evict set of active requests whose removal lets it in
	// (Decision.Evict/Admit). Off by default; engines also gate the
	// execution side behind their own preemption config.
	Preempt bool

	// Scratch state (see type comment). epoch identifies the current
	// Decide call in the request marks; cohorts keeps its own.
	epoch    uint64
	starve   []*Request
	batchBuf []*Request
	evictBuf []*Request
	admitBuf []*Request
	cohorts  cohorts
}

// NewVaLoRAPolicy returns the policy with calibrated defaults.
func NewVaLoRAPolicy() *VaLoRAPolicy {
	return &VaLoRAPolicy{
		Theta:     250 * time.Millisecond,
		EstExec:   20 * time.Millisecond,
		SwitchLat: 5 * time.Millisecond,
	}
}

func (p *VaLoRAPolicy) Name() string { return "VaLoRA" }

// take appends r to the batch and marks it as batched for this epoch.
func (p *VaLoRAPolicy) take(batch []*Request, r *Request) []*Request {
	r.mark = p.epoch << 1
	return append(batch, r)
}

// appendUnmarked appends requests from all that are not yet in the
// batch (by epoch mark), preserving order, until the batch reaches
// maxBS. keep filters by adapter when ≥ 0.
func (p *VaLoRAPolicy) appendUnmarked(batch, all []*Request, maxBS, keep int) []*Request {
	for _, r := range all {
		if len(batch) >= maxBS {
			break
		}
		if r.mark == p.epoch<<1 || (keep >= 0 && r.AdapterID != keep) {
			continue
		}
		batch = p.take(batch, r)
	}
	return batch
}

// effTheta is the urgency-weighted credit tolerance of one request:
// with DeadlineCredit enabled, a deadline-carrying request's tolerance
// shrinks linearly with its remaining slack-to-deadline fraction
// (floored at θ/10 once the deadline is at hand or past), so urgency
// accelerates the starving label exactly where lateness is about to
// become an SLO miss. With DeadlineCredit off — or for best-effort
// requests — the tolerance is θ unchanged.
func (p *VaLoRAPolicy) effTheta(r *Request, theta, now time.Duration) time.Duration {
	if !p.DeadlineCredit || r.Deadline <= 0 {
		return theta
	}
	slack := r.Slack(now)
	if slack <= 0 {
		return theta / 10
	}
	f := float64(slack) / float64(r.Deadline)
	if f > 1 {
		f = 1
	}
	if f < 0.1 {
		f = 0.1
	}
	return time.Duration(float64(theta) * f)
}

// Decide follows Algorithm 1 line by line: collect starving requests,
// find the largest same-adapter cohort, then pick merge (no
// starvation, cohort dominant), mixture (some starvation, cohort still
// dominant) or unmerge (everything else). With Preempt enabled it
// additionally pairs starving deadline-carrying requests stuck in the
// Waiting backlog with displaceable active requests (Decision.Evict /
// Decision.Admit).
//
//valora:hotpath
func (p *VaLoRAPolicy) Decide(it Iteration) Decision {
	now, active, cur, maxBS := it.Now, it.Active, it.State, it.MaxBS
	if len(active) == 0 {
		return Decision{Mode: cur.Mode, Merged: cur.Merged}
	}
	p.epoch++

	// The tolerance scales with backlog depth: under overload every
	// request waits many scheduling rounds, and labelling them all as
	// starving would permanently disable the (throughput-superior)
	// merged mode.
	theta := p.Theta
	if len(active) > maxBS {
		theta = time.Duration(float64(p.Theta) * float64(len(active)) / float64(maxBS))
	}
	p.starve = p.starve[:0]
	if !p.DeadlineCredit {
		// Deadline-blind fast path: a bare compare per request (the
		// stress-scale hot loop), exactly Algorithm 1's credit test.
		for _, r := range active {
			if r.Credit(now, p.EstExec, p.SwitchLat) > theta {
				p.starve = append(p.starve, r)
			}
		}
	} else {
		for _, r := range active {
			if r.Credit(now, p.EstExec, p.SwitchLat) > p.effTheta(r, theta, now) {
				p.starve = append(p.starve, r)
			}
		}
	}
	mergedID, mergedCount, curCount := p.cohorts.count(active, cur)

	// Hysteresis: keep the currently merged adapter unless the new
	// dominant cohort is meaningfully larger, so marginal count
	// changes do not thrash the (cheap but nonzero) switch.
	if cur.Merged >= 0 && mergedID != cur.Merged && curCount > 0 && float64(mergedCount) < 1.5*float64(curCount) {
		mergedID, mergedCount = cur.Merged, curCount
	}

	// Principle 1 (merged whenever possible), made batch-aware: a
	// merged-only iteration excludes every other adapter's requests,
	// so it only beats unmerged serving when the dominant cohort fills
	// the batch on its own and nobody is starving.
	mode, merged := lora.ModeUnmerged, -1
	var batch []*Request
	if len(p.starve) == 0 && mergedCount >= maxBS {
		mode, merged = lora.ModeMerged, mergedID
		batch = p.appendUnmarked(p.batchBuf[:0], active, maxBS, mergedID)
	} else {
		// Starving requests go first in every remaining mode.
		batch = p.batchBuf[:0]
		for _, r := range p.starve {
			if len(batch) >= maxBS {
				break
			}
			batch = p.take(batch, r)
		}
		// Principle 2: the deLoRA mixture folds the dominant adapter
		// for free while every other request runs unmerged alongside
		// it. The deLoRA compensation branch covers the unmerged
		// tokens, so the mixture pays off exactly while the merged
		// cohort holds the majority of the work (the Fig. 20
		// crossover).
		if !p.DisableMixture && float64(mergedCount) > 0.5*float64(len(active)) {
			mode, merged = lora.ModeMixture, mergedID
			batch = p.appendUnmarked(batch, active, maxBS, mergedID)
		}
		batch = p.appendUnmarked(batch, active, maxBS, -1)
	}
	p.batchBuf = batch
	evict, admit := p.withPreemption(&it, theta)
	return Decision{Mode: mode, Merged: merged, Batch: batch, Evict: evict, Admit: admit}
}

// withPreemption returns the displacement decision when Preempt is on
// and requests wait outside the admitted set. It is the inlinable
// guard of attachEvictions: with Preempt off or nothing waiting,
// Decide pays one branch.
func (p *VaLoRAPolicy) withPreemption(it *Iteration, theta time.Duration) (evict, admit []*Request) {
	if p.Preempt && len(it.Waiting) > 0 {
		return p.attachEvictions(it, theta)
	}
	return nil, nil
}

// attachEvictions pairs every starving deadline-carrying request stuck
// in the Waiting backlog with one displaceable active request (the
// eviction victim) whose removal frees an admission slot, and records
// the pairs in d.Evict and d.Admit. Victims are drawn from active
// requests outside this round's batch that are not Unpreemptable and
// are strictly less urgent than the requester: best-effort victims go
// first (least recompute waste — the fewest emitted tokens — then the
// latest arrival), then deadline-carrying victims with strictly looser
// slack (loosest first). With nothing urgent waiting, both are nil —
// the exact deadline-blind decision.
func (p *VaLoRAPolicy) attachEvictions(it *Iteration, theta time.Duration) (evict, admit []*Request) {
	admit = p.admitBuf[:0]
	for _, w := range it.Waiting {
		if w.Deadline > 0 && w.Credit(it.Now, p.EstExec, p.SwitchLat) > p.effTheta(w, theta, it.Now) {
			admit = append(admit, w)
		}
	}
	p.admitBuf = admit
	if len(admit) == 0 {
		return nil, nil
	}
	// One victim per urgent requester: scan the unbatched, preemptable
	// actives for the best displacement — best-effort first (fewest
	// emitted tokens, then latest arrival), else the deadline-carrying
	// active with the loosest slack, provided it is strictly looser
	// than the requester's. A requester that finds no victim is simply
	// dropped from the admission set (the eligibility test is relative
	// to each requester, so a tighter deadline later in the backlog may
	// still find one); paired compacts admit in place to the requesters
	// that did.
	evict = p.evictBuf[:0]
	paired := admit[:0]
	for _, w := range admit {
		var victim *Request
		for _, r := range it.Active {
			if r.mark>>1 == p.epoch || r.Unpreemptable {
				continue // batched or already a victim this round
			}
			if r.Deadline > 0 && r.Slack(it.Now) <= w.Slack(it.Now) {
				continue // as urgent as the requester: no net win
			}
			if victim == nil || LessUrgent(r, victim, it.Now) {
				victim = r
			}
		}
		if victim == nil {
			continue
		}
		victim.mark = p.epoch<<1 | 1
		evict = append(evict, victim)
		paired = append(paired, w)
	}
	p.evictBuf = evict
	if len(evict) == 0 {
		return nil, nil
	}
	return evict, paired
}

// capBatch truncates a batch to maxBS requests. (Used by the baseline
// policies; VaLoRAPolicy builds batches in its reusable scratch
// buffer.)
func capBatch(reqs []*Request, maxBS int) []*Request {
	if len(reqs) <= maxBS {
		return append([]*Request(nil), reqs...)
	}
	return append([]*Request(nil), reqs[:maxBS]...)
}
