package bench

import (
	"fmt"
	"time"

	"valora/internal/lmm"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/workload"
)

// preemptFleet reports the fixed fleet size of the preemption-tail
// comparison runs.
func (s *Suite) preemptFleet() int { return 2 }

// preemptHighWater is the per-instance in-flight bound of the
// preemption-tail runs: deliberately deep (past the admission cap), so
// overload queues *inside* the instances — the regime where placement
// alone cannot help a tight deadline and only displacement can.
const preemptHighWater = 192

// PreemptionTail is the iteration-level preemption experiment: a
// tight-deadline realtime class shares a VaLoRA cluster with a
// best-effort batch class whose large prompts keep every instance's
// admitted set full at ~1.5x offered load (workload.DefaultPreemptMix).
// The same trace is replayed three ways, all under fair-share
// admission:
//
//   - no-preempt: deadline-blind instances (PR 3 behavior) — once a
//     batch request is admitted it can never be displaced, so a 250 ms
//     request arriving mid-burst waits out the whole admitted backlog.
//   - preempt: Decision.Evict displacement — starving realtime
//     requests stuck behind the admission cap evict best-effort batch
//     members (KV released, recompute on resume, re-admission through
//     the fair-share queue, unpreemptable after MaxPreemptions).
//   - preempt+deadline-credit: additionally the urgency-weighted
//     credit — a request's starvation tolerance θ shrinks with its
//     slack-to-deadline, so tight deadlines jump the batch earlier.
//
// The headline number is the realtime tenant's p99 end-to-end latency
// at equal offered load. One record per mode is appended to the
// BENCH_serving.json trajectory.
func (s *Suite) PreemptionTail() (*Table, error) {
	model := lmm.QwenVL7B()
	fleet := s.preemptFleet()
	scale := float64(fleet)
	duration := s.traceDuration()

	type mode struct {
		name    string
		preempt bool
		credit  bool
	}
	modes := []mode{
		{name: "no-preempt"},
		{name: "preempt", preempt: true},
		{name: "preempt+deadline-credit", preempt: true, credit: true},
	}

	t := &Table{
		ID: "preemption-tail",
		Title: fmt.Sprintf("Iteration-level preemption under a realtime+batch mix (%d instances, ~1.5x offered load)",
			fleet),
		Paper: "beyond-paper experiment: KAI-Scheduler-style reclaim executed at the instance — fair ordering (PR 3) stops at placement, so the realtime tail needs displacement; preemption plus urgency-weighted credit should cut realtime p99 E2E at equal offered load",
		Columns: []string{"mode", "tenant", "SLO attainment", "p99 (ms)", "preempted p99 (ms)",
			"completed", "shed", "preemptions", "recompute tok", "Jain"},
	}

	rtP99 := make(map[string]float64, len(modes))
	for _, m := range modes {
		m := m
		build := func(int) (serving.Options, error) {
			opts, err := serving.SystemOptions(serving.SystemVaLoRA, s.GPU, model)
			if err != nil {
				return serving.Options{}, err
			}
			p := sched.NewVaLoRAPolicy()
			p.Preempt = m.preempt
			p.DeadlineCredit = m.credit
			opts.Policy = p
			// A modest work-in-progress cap (vs the 3x-batch default):
			// large batch prompts make deep admitted sets unrealistic for
			// KV, and it is the admitted set a tight deadline must jump.
			opts.AdmitCap = 48
			if m.preempt {
				opts.Preemption = &serving.PreemptionConfig{MaxPreemptions: 2}
			}
			return opts, nil
		}
		cfg := serving.SchedulingConfig{
			Tenants:         workload.PreemptTenantClasses(),
			FairShare:       true,
			HighWater:       preemptHighWater,
			EstimateService: serving.ServiceFloor(s.GPU, model),
		}
		cl, err := serving.NewManagedCluster(fleet, serving.NewLeastLoaded(), cfg, build)
		if err != nil {
			return nil, err
		}
		trace := workload.GenMultiTenant(workload.DefaultPreemptMix(duration, scale, s.Seed))
		start := time.Now()
		rep, err := cl.Run(trace)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if rep.Completed+rep.Rejected+rep.Shed != len(trace) {
			return nil, fmt.Errorf("bench: preemption-tail %s lost requests: %d+%d+%d of %d",
				m.name, rep.Completed, rep.Rejected, rep.Shed, len(trace))
		}

		slo := make(map[string]float64, len(rep.Tenants))
		p99 := make(map[string]float64, len(rep.Tenants))
		for _, tr := range rep.Tenants {
			slo[tr.Name] = tr.SLOAttainment()
			p99[tr.Name] = tr.E2E.P99
			t.AddRow(m.name, tr.Name, pct(tr.SLOAttainment()), f2(tr.E2E.P99), f2(tr.PreemptedE2E.P99),
				fmt.Sprintf("%d", tr.Completed), fmt.Sprintf("%d", tr.Shed),
				fmt.Sprintf("%d", tr.Preemptions), fmt.Sprintf("%d", tr.RecomputeTokens),
				f2(rep.FairnessIndex))
		}
		rtP99[m.name] = p99["realtime"]

		rec := s.newRecord("preemption-tail", rep, len(trace), rep.PeakInstances, "least-loaded", wall)
		rec.Mode = m.name
		rec.TenantSLO = slo
		rec.TenantP99MS = p99
		rec.Jain = rep.FairnessIndex
		rec.Shed = rep.Shed
		rec.Preemptions = rep.Preemptions
		rec.RecomputeTokens = rep.RecomputeTokens
		if err := s.appendStressRecord(rec); err != nil {
			return nil, err
		}
	}

	base, best := rtP99["no-preempt"], rtP99["preempt+deadline-credit"]
	cut := 0.0
	if base > 0 {
		cut = 1 - best/base
	}
	t.Notes = fmt.Sprintf("preemption+deadline-credit cuts realtime p99 E2E by %s at equal offered load "+
		"(%.1f → %.1f ms; plain preemption %.1f ms): displacement hands admitted batch slots to starving "+
		"250 ms requests, recompute-on-resume charges the cost to the batch class, and the "+
		"unpreemptable-after-N guard bounds churn. Appended one record per mode to %s.",
		pct(cut), base, best, rtP99["preempt"], BenchServingFile)
	return t, nil
}
