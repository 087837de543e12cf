package valora

import (
	"testing"
	"time"

	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// TestManagedClusterFacade drives the multi-tenant API end to end
// through the facade: default classes, the default three-tenant
// workload, fair-share dispatch and the service-floor estimator.
func TestManagedClusterFacade(t *testing.T) {
	sc := SchedulingConfig{
		Tenants:         DefaultTenantClasses(),
		FairShare:       true,
		HighWater:       4,
		EstimateService: serving.ServiceFloor(simgpu.A100(), QwenVL7B()),
	}
	cl, err := NewManagedCluster(Config{}, 2, LeastLoadedDispatch, sc)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.GenMultiTenant(workload.DefaultMultiTenant(8*time.Second, 2, 42))
	rep, err := cl.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Rejected+rep.Shed != len(trace) {
		t.Fatalf("lost requests: %d+%d+%d of %d", rep.Completed, rep.Rejected, rep.Shed, len(trace))
	}
	if len(rep.Tenants) != 3 {
		t.Fatalf("want 3 tenant rows, got %d", len(rep.Tenants))
	}
	var realtime *TenantReport
	for i := range rep.Tenants {
		if rep.Tenants[i].Name == "realtime" {
			realtime = &rep.Tenants[i]
		}
	}
	if realtime == nil || realtime.Submitted == 0 {
		t.Fatal("realtime tenant missing traffic")
	}
	if rep.FairnessIndex <= 0 || rep.FairnessIndex > 1 {
		t.Fatalf("fairness index %v out of range", rep.FairnessIndex)
	}
}

// TestManagedClusterFacadeAutoscale exercises the elastic path through
// the facade.
func TestManagedClusterFacadeAutoscale(t *testing.T) {
	sc := SchedulingConfig{
		Tenants:   DefaultTenantClasses(),
		FairShare: true,
		HighWater: 4,
		Autoscale: &AutoscaleConfig{Min: 1, Max: 3, HighDepth: 32, LowDepth: 4, Cooldown: time.Second},
	}
	cl, err := NewManagedCluster(Config{}, 1, RoundRobinDispatch, sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Serve(workload.GenMultiTenant(workload.DefaultMultiTenant(10*time.Second, 2, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleUps == 0 || rep.PeakInstances < 2 {
		t.Fatalf("autoscaler idle under overload: ups=%d peak=%d", rep.ScaleUps, rep.PeakInstances)
	}
}
