package bench

import (
	"fmt"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/workload"
)

// multiTenantFleet reports the fixed fleet size of the comparison runs
// (the autoscaled run starts at 1 and may grow one past it).
func (s *Suite) multiTenantFleet() int {
	if s.Quick {
		return 2
	}
	return 3
}

// MultiTenant is the tenant-aware resource-manager experiment: three
// service classes (realtime video-analytics assistance, interactive
// retrieval, best-effort batch inspection) share one VaLoRA cluster at
// an offered load ~1.5× its capacity, and the same trace is replayed
// under plain FIFO dispatch, deficit-weighted fair-share dispatch, and
// fair-share with the elastic autoscaler. The headline number is the
// realtime tenant's SLO attainment: FIFO lets the batch tenant's
// bursts block the 250 ms class head-of-line; fair-share isolates it
// at equal offered load. One record per mode is appended to the
// BENCH_serving.json trajectory.
func (s *Suite) MultiTenant() (*Table, error) {
	model := lmm.QwenVL7B()
	fleet := s.multiTenantFleet()
	scale := float64(fleet)
	duration := s.traceDuration()

	build := func(int) (serving.Options, error) {
		return serving.SystemOptions(serving.SystemVaLoRA, s.GPU, model)
	}
	gen := func() workload.Trace {
		return workload.GenMultiTenant(workload.DefaultMultiTenant(duration, scale, s.Seed))
	}

	type mode struct {
		name      string
		fair      bool
		instances int
		autoscale *serving.AutoscaleConfig
	}
	modes := []mode{
		{name: "fifo", fair: false, instances: fleet},
		{name: "fair-share", fair: true, instances: fleet},
		{name: "fair-share+autoscale", fair: true, instances: 1,
			autoscale: &serving.AutoscaleConfig{Min: 1, Max: fleet + 1, HighDepth: 48, LowDepth: 8, Cooldown: 2 * time.Second}},
	}

	t := &Table{
		ID:    "multi-tenant",
		Title: fmt.Sprintf("Multi-tenant SLO-aware cluster (%d instances, 3 service classes, ~1.5x offered load)", fleet),
		Paper: "beyond-paper experiment: KAI-Scheduler-style fair share (guaranteed quota + burst credit) and deadline-aware dispatch should hold the realtime class's SLO under batch bursts that sink plain FIFO",
		Columns: []string{"dispatch", "tenant", "SLO attainment", "p99 (ms)", "completed", "shed",
			"served share", "Jain", "peak inst"},
	}

	var sloByMode []map[string]float64
	for _, m := range modes {
		cfg := serving.SchedulingConfig{
			Tenants:         workload.DefaultTenantClasses(),
			FairShare:       m.fair,
			HighWater:       4,
			EstimateService: serving.ServiceFloor(s.GPU, model),
			Autoscale:       m.autoscale,
		}
		cl, err := serving.NewManagedCluster(m.instances, serving.NewLeastLoaded(), cfg, build)
		if err != nil {
			return nil, err
		}
		trace := gen() // fresh trace per run: requests carry runtime state
		start := time.Now()
		rep, err := cl.Run(trace)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if rep.Completed+rep.Rejected+rep.Shed != len(trace) {
			return nil, fmt.Errorf("bench: multi-tenant %s lost requests: %d+%d+%d of %d",
				m.name, rep.Completed, rep.Rejected, rep.Shed, len(trace))
		}

		slo := make(map[string]float64, len(rep.Tenants))
		for _, tr := range rep.Tenants {
			slo[tr.Name] = tr.SLOAttainment()
			t.AddRow(m.name, tr.Name, pct(tr.SLOAttainment()), f2(tr.E2E.P99),
				fmt.Sprintf("%d", tr.Completed), fmt.Sprintf("%d", tr.Shed),
				pct(tr.ServedShare), f2(rep.FairnessIndex), fmt.Sprintf("%d", rep.PeakInstances))
		}
		sloByMode = append(sloByMode, slo)

		rec := s.newRecord("multi-tenant", rep, len(trace), rep.PeakInstances, "least-loaded", wall)
		rec.Mode = m.name
		rec.TenantSLO = slo
		rec.Jain = rep.FairnessIndex
		rec.Shed = rep.Shed
		rec.ScaleUps = rep.ScaleUps
		rec.ScaleDowns = rep.ScaleDowns
		if err := s.appendStressRecord(rec); err != nil {
			return nil, err
		}
	}

	gain := sloByMode[1]["realtime"] - sloByMode[0]["realtime"]
	t.Notes = fmt.Sprintf("fair-share lifts realtime SLO attainment by %+.1f points over FIFO at equal offered load (%s); "+
		"the autoscaled run starts at 1 instance and grows on queue-depth hysteresis. Appended one record per mode to %s.",
		100*gain, pct(sloByMode[1]["realtime"]), BenchServingFile)
	return t, nil
}
