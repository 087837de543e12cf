package serving

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/simgpu"
	"valora/internal/train"
)

// TestRunIsShimOverStepAPI replays the same trace through Run and
// through manual Submit-all + Drain; the two must produce identical
// reports (Run is a thin shim, not a separate code path).
func TestRunIsShimOverStepAPI(t *testing.T) {
	g := simgpu.A100()
	model := lmm.QwenVL7B()

	viaRun, err := NewSystem(SystemVaLoRA, g, model)
	if err != nil {
		t.Fatal(err)
	}
	repRun, err := viaRun.Run(shortRetrieval(42))
	if err != nil {
		t.Fatal(err)
	}

	viaStep, err := NewSystem(SystemVaLoRA, g, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range shortRetrieval(42) {
		viaStep.Submit(r)
	}
	repStep, err := viaStep.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if repRun.AvgTokenLatency != repStep.AvgTokenLatency ||
		repRun.Iterations != repStep.Iterations ||
		repRun.Switches != repStep.Switches ||
		repRun.SimTime != repStep.SimTime ||
		repRun.Completed != repStep.Completed {
		t.Fatalf("Run and Submit+Drain diverged:\n run: %+v\nstep: %+v", repRun, repStep)
	}
}

func TestNextEventAtLifecycle(t *testing.T) {
	srv, err := NewSystem(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	if at := srv.NextEventAt(); at != sim.Never {
		t.Fatalf("idle engine should report Never, got %v", at)
	}
	req := &sched.Request{
		ID: 1, AdapterID: 0, App: sched.VisualRetrieval, Task: train.VisualQA,
		InputTokens: 300, OutputTokens: 4, Arrival: 5 * time.Second,
	}
	srv.Submit(req)
	if at := srv.NextEventAt(); at != 5*time.Second {
		t.Fatalf("pending future arrival should report its time, got %v", at)
	}
	// First step only advances the clock to the arrival.
	progressed, err := srv.Step()
	if err != nil || !progressed {
		t.Fatalf("step: %v %v", progressed, err)
	}
	if srv.Now() != 5*time.Second {
		t.Fatalf("clock should sit at the arrival, got %v", srv.Now())
	}
	if at := srv.NextEventAt(); at != srv.Now() {
		t.Fatalf("runnable work should report now, got %v", at)
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if req.Phase != sched.PhaseDone {
		t.Fatal("drain should complete the request")
	}
	if at := srv.NextEventAt(); at != sim.Never {
		t.Fatalf("drained engine should report Never, got %v", at)
	}
	if progressed, err := srv.Step(); err != nil || progressed {
		t.Fatalf("idle step should be a no-op: %v %v", progressed, err)
	}
}

// TestOnlineSubmitIntoLiveEngine drives the persistent-engine shape
// the HTTP frontend uses: requests submitted at the engine's current
// virtual time, one after another, against accumulated state.
func TestOnlineSubmitIntoLiveEngine(t *testing.T) {
	srv, err := NewSystem(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	var lastFinish time.Duration
	for i := 1; i <= 3; i++ {
		req := &sched.Request{
			ID: int64(i), AdapterID: i % 2, App: sched.VisualRetrieval, Task: train.VisualQA,
			InputTokens: 300, OutputTokens: 8, Arrival: srv.Now(),
		}
		srv.Submit(req)
		for req.Phase != sched.PhaseDone {
			progressed, err := srv.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !progressed {
				t.Fatal("engine stalled with an unfinished request")
			}
		}
		if req.Finish < lastFinish {
			t.Fatalf("virtual time ran backwards: %v after %v", req.Finish, lastFinish)
		}
		lastFinish = req.Finish
	}
	rep := srv.Report()
	if rep.Requests != 3 || rep.Completed != 3 {
		t.Fatalf("live engine report %d/%d, want 3/3", rep.Completed, rep.Requests)
	}
}

// TestDrainIsRepeatable checks that Drain on an already-idle engine is
// a cheap no-op returning the same cumulative report (needed by the
// persistent frontend engines).
func TestDrainIsRepeatable(t *testing.T) {
	srv, err := NewSystem(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(shortRetrieval(61)); err != nil {
		t.Fatal(err)
	}
	a, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.SimTime != b.SimTime || a.AvgTokenLatency != b.AvgTokenLatency {
		t.Fatalf("repeated drains diverged: %+v vs %+v", a, b)
	}
}

// backlogServer returns a VaLoRA instance that has run one Step over
// n+AdmitCap requests arriving at once: the admitted set is full and
// n requests wait behind it.
func backlogServer(b *testing.B, n int) *Server {
	srv, err := NewSystem(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n+srv.opts.AdmitCap; i++ {
		srv.Submit(&sched.Request{
			ID: int64(i + 1), AdapterID: i % 8, App: sched.VisualRetrieval, Task: train.VisualQA,
			InputTokens: 64, OutputTokens: 4,
		})
	}
	if _, err := srv.Step(); err != nil {
		b.Fatal(err)
	}
	if len(srv.waiting()) != n {
		b.Fatalf("%d requests waiting, want %d", len(srv.waiting()), n)
	}
	return srv
}

// BenchmarkStepBacklog times one Step of an instance whose waiting
// queue holds 1k or 100k arrived requests. Admission moves only the
// admitted head, so the per-step cost must not grow with the backlog.
// The instance is rebuilt, untimed, once half its backlog has drained.
func BenchmarkStepBacklog(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("waiting=%d", n), func(b *testing.B) {
			srv := backlogServer(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(srv.waiting()) < n/2 {
					b.StopTimer()
					srv = backlogServer(b, n)
					b.StartTimer()
				}
				if _, err := srv.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWaitingQueueMatchesModel drives the waiting queue's push and
// head admission with random batch sizes against a plain slice,
// alternating phases where the backlog grows and where it drains, so
// the buffer both grows and slides back. The queue must keep FIFO
// order, and no slot outside it may still point at a request, so
// admitted requests are not retained.
func TestWaitingQueueMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := &Server{}
	var model []*sched.Request
	id := int64(0)
	for op := 0; op < 20000; op++ {
		push := 8
		if op/1000%2 == 0 {
			push = 12 // a growing backlog
		}
		if rng.Intn(2) == 0 {
			for n := rng.Intn(push); n > 0; n-- {
				id++
				r := &sched.Request{ID: id}
				s.pushWaiting(r)
				model = append(model, r)
			}
		} else if k := min(len(model), rng.Intn(10)); k > 0 {
			s.admitWaiting(k)
			model = model[k:]
		}
		if !slices.Equal(s.waiting(), model) {
			t.Fatalf("op %d: waiting queue diverges from the model", op)
		}
		full := s.waitBuf[:cap(s.waitBuf)]
		for i, r := range full {
			if (i < s.waitHead || i >= len(s.waitBuf)) && r != nil {
				t.Fatalf("op %d: slot %d outside the queue still holds request %d", op, i, r.ID)
			}
		}
	}
	if len(s.active) != int(id)-len(model) {
		t.Fatalf("%d requests admitted, want %d", len(s.active), int(id)-len(model))
	}
}
