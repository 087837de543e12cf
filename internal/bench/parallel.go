package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/workload"
)

// ParallelManaged is the saturated-managed-sharding benchmark: the
// multi-tenant trace scaled far past the fleet's capacity, replayed
// through (a) the classic managed engine — which may place a request
// after any instance step, so RunSharded runs it sequentially and it
// is the reference the speedup is measured against — and (b) the
// bounded-lookahead engine across the shard sweep. Every lookahead run
// must be bit-identical to the lookahead sequential reference
// (shards=0); the speedup column is classic-engine wall time over
// lookahead wall time at each shard count. One record per
// configuration is appended to the BENCH_serving.json trajectory.

// parallelManagedFleet reports the fixed fleet size of the saturated
// runs: 16 instances full, so the shards=8 sweep point runs unclamped
// with two instances per shard and the steal deque has real work to
// rebalance.
func (s *Suite) parallelManagedFleet() int {
	if s.Quick {
		return 4
	}
	return 16
}

// parallelManagedScale is the offered-load multiplier on the
// multi-tenant arrival rates: a burst-overload regime (offered load
// more than an order of magnitude past the 16-instance fleet's
// capacity, ~1.3M arrivals over the 60s trace) that keeps the
// fair-share queue non-empty for essentially the whole replay. This
// is exactly the regime where the classic engine couples instances at
// every step, and where admission — not instance stepping — is what
// the simulator spends its wall-clock on.
func (s *Suite) parallelManagedScale() float64 {
	if s.Quick {
		return 30
	}
	return 300
}

func (s *Suite) parallelManagedRepeats() int {
	if s.Quick {
		return 2
	}
	return 3
}

// parallelManagedSweep is the lookahead shard axis: 0 is the
// lookahead engine advanced inline (the bit-identity reference), the
// rest run it on live shard workers. Suite.Shards joins the sweep
// when absent, like the stress sweep.
func (s *Suite) parallelManagedSweep() []int {
	sweep := []int{0, 1, 2, 4, 8}
	if s.Quick {
		sweep = []int{0, 4}
	}
	if s.Shards > 0 {
		for _, v := range sweep {
			if v == s.Shards {
				return sweep
			}
		}
		sweep = append(sweep, s.Shards)
	}
	return sweep
}

func (s *Suite) ParallelManaged() (*Table, error) {
	model := lmm.QwenVL7B()
	fleet := s.parallelManagedFleet()
	scale := s.parallelManagedScale()
	duration := s.traceDuration()
	repeats := s.parallelManagedRepeats()
	// The epoch quantum is the placement-revision granularity the
	// lookahead engine trades for coarse epochs; 200ms keeps barrier
	// overhead well below the serving work between barriers on this
	// trace (the sensitivity is roughly linear in 1/Quantum).
	quantum := 200 * time.Millisecond

	build := func(int) (serving.Options, error) {
		return serving.SystemOptions(serving.SystemVaLoRA, s.GPU, model)
	}
	gen := func() workload.Trace {
		return workload.GenMultiTenant(workload.DefaultMultiTenant(duration, scale, s.Seed))
	}
	baseCfg := serving.SchedulingConfig{
		Tenants:         workload.DefaultTenantClasses(),
		FairShare:       true,
		HighWater:       4,
		EstimateService: serving.ServiceFloor(s.GPU, model),
	}

	// One trace for the whole experiment (runtime request state reset
	// between replays, like the stress sweep): every engine and shard
	// count replays literally the same arrivals.
	trace := gen()
	n := len(trace)

	// run replays the trace repeats times on a fresh cluster each
	// time, verifying the replays are bit-identical and request
	// conservation holds, and returns the report plus the wall-time
	// spread.
	run := func(lookahead bool, shards int) (*serving.Report, wallSpread, error) {
		cfg := baseCfg
		if lookahead {
			// Slots is sized to the ~17 requests a saturated instance
			// serves per 200ms epoch; leaving it at the HighWater default
			// would cap admission far below instance capacity and make
			// the speedup column measure starvation, not engine work.
			cfg.Lookahead = &serving.LookaheadConfig{Quantum: quantum, Slots: 16}
		}
		var rep *serving.Report
		walls := make([]time.Duration, 0, repeats)
		for r := 0; r < repeats; r++ {
			cl, err := serving.NewManagedCluster(fleet, serving.NewLeastLoaded(), cfg, build)
			if err != nil {
				return nil, wallSpread{}, err
			}
			trace.ResetRuntime()
			start := time.Now()
			var got *serving.Report
			if shards == 0 {
				got, err = cl.Run(trace)
			} else {
				got, err = cl.RunSharded(trace, shards)
			}
			if err != nil {
				return nil, wallSpread{}, err
			}
			walls = append(walls, time.Since(start))
			if got.Completed+got.Rejected+got.Shed != n {
				return nil, wallSpread{}, fmt.Errorf("bench: parallel-managed replay lost requests: %d+%d+%d of %d",
					got.Completed, got.Rejected, got.Shed, n)
			}
			if rep == nil {
				rep = got
			} else if !reflect.DeepEqual(rep, got) {
				return nil, wallSpread{}, fmt.Errorf("bench: parallel-managed replay diverged across repeats (lookahead=%v shards=%d)", lookahead, shards)
			}
		}
		return rep, spreadOf(walls), nil
	}

	t := &Table{
		ID: "parallel-managed",
		Title: fmt.Sprintf("Saturated managed sharding: multi-tenant trace at %.0fx scale, %d instances (median of %d)",
			scale, fleet, repeats),
		Paper: "beyond-paper engineering: bounded-lookahead admission keeps the conservative parallel engine's epochs coarse while the fair-share queue drains, so saturated managed replays — which the classic engine runs sequentially — parallelize too",
		Columns: []string{"engine", "shards", "wall med (s)", "sim req/s", "speedup vs classic",
			"completed", "shed", "realtime SLO", "Jain"},
	}

	record := func(rep *serving.Report, mode string, n, shards int, wall wallSpread, speedup float64) error {
		slo := make(map[string]float64, len(rep.Tenants))
		for _, tr := range rep.Tenants {
			slo[tr.Name] = tr.SLOAttainment()
		}
		rec := s.newRecord("parallel-managed", rep, n, fleet, "least-loaded", wall.med)
		rec.Shards = shards
		rec.Repeats = repeats
		rec.WallMinSeconds = wall.min.Seconds()
		rec.WallMaxSeconds = wall.max.Seconds()
		rec.SpeedupVsSeq = speedup
		rec.Mode = mode
		rec.TenantSLO = slo
		rec.Jain = rep.FairnessIndex
		rec.Shed = rep.Shed
		if err := s.appendStressRecord(rec); err != nil {
			return err
		}
		engine, shardLabel, speedupLabel := "classic", "seq", "—"
		if mode != "fair-share" {
			engine = "lookahead"
			if shards > 0 {
				shardLabel = fmt.Sprintf("%d", shards)
			}
			speedupLabel = fmt.Sprintf("%.2fx", speedup)
		}
		t.AddRow(engine, shardLabel, f2(rec.WallSeconds), fmt.Sprintf("%.0f", rec.SimRPS), speedupLabel,
			fmt.Sprintf("%d", rep.Completed), fmt.Sprintf("%d", rep.Shed),
			pct(slo["realtime"]), f2(rep.FairnessIndex))
		return nil
	}

	// Sequential reference: the classic managed engine, which is what a
	// non-lookahead run of this workload uses, sharded or not. Its wall
	// time is the denominator-free baseline of the speedup column; its
	// report is NOT the bit-identity reference (bounded lookahead is a
	// different admission semantics), the lookahead shards=0 run below
	// is.
	classicRep, classicWall, err := run(false, 0)
	if err != nil {
		return nil, err
	}
	if classicRep.Shed == 0 {
		return nil, fmt.Errorf("bench: parallel-managed trace is not saturating the cluster (no shed requests); raise the scale")
	}
	if err := record(classicRep, "fair-share", n, 0, classicWall, 0); err != nil {
		return nil, err
	}

	var ref *serving.Report
	var headline float64
	headlineShards := 0
	for _, shards := range s.parallelManagedSweep() {
		rep, wall, err := run(true, shards)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = rep
		} else if !reflect.DeepEqual(ref, rep) {
			return nil, fmt.Errorf("bench: lookahead sharded replay (shards=%d) diverged from the lookahead sequential reference", shards)
		}
		speedup := classicWall.med.Seconds() / wall.med.Seconds()
		if shards >= headlineShards {
			headlineShards, headline = shards, speedup
		}
		if err := record(rep, "fair-share+lookahead", n, shards, wall, speedup); err != nil {
			return nil, err
		}
	}

	t.Notes = fmt.Sprintf("speedup is classic-engine wall time over lookahead wall time on the same trace (classic is the engine a non-lookahead managed run uses, and RunSharded runs it sequentially); "+
		"all lookahead runs verified bit-identical to the lookahead sequential reference across repeats and shard counts; headline %.2fx at %d shards (GOMAXPROCS=%d). Appended one record per configuration to %s.",
		headline, headlineShards, runtime.GOMAXPROCS(0), BenchServingFile)
	return t, nil
}

// spotCheckSharded replays a freshly built run of a shard-aware
// experiment through RunSharded at Suite.Shards and verifies the
// report is bit-identical to the sequential one — the -shards
// spot-check contract. Callers gate on s.Shards > 0 and hand over a
// fresh cluster plus a fresh (or runtime-reset) trace, since requests
// carry runtime state.
func (s *Suite) spotCheckSharded(id string, seq *serving.Report, cl *serving.Cluster, trace workload.Trace) error {
	rep, err := cl.RunSharded(trace, s.Shards)
	if err != nil {
		return fmt.Errorf("bench: %s sharded spot check: %w", id, err)
	}
	if !reflect.DeepEqual(seq, rep) {
		return fmt.Errorf("bench: %s sharded replay (shards=%d) diverged from the sequential report", id, s.Shards)
	}
	return nil
}
