package serving

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/trace"
	"valora/internal/workload"
)

// The differential contract of fast-forward: Server.Step may run a
// window of repeated decode iterations inside one call, but every
// virtual output must be exactly what one iteration per Step produces.
// Each case below runs twice, with fast-forward switched off (the
// per-iteration reference) and on, and the runs must agree on the
// report digest, every request's schedule and completion times, and
// the trace rows byte for byte. A window asks the policy only when its
// last decision's hold runs out, so the fast run's Decide calls must be
// a subsequence of the reference's, and every call it skipped must have
// returned the decision it held.

// ffOutcome is what one run of a case leaves behind. light, the
// iterations fast-forward windows ran, is not compared.
type ffOutcome struct {
	rep     *Report
	digest  string
	reqs    []ffRequest
	decides []ffDecision
	trace   []byte
	light   int
}

// ffRequest is one request's runtime record after the run.
type ffRequest struct {
	ID                                              int64
	FirstSchedule, LastSchedule, FirstToken, Finish time.Duration
	Emitted                                         int
	Phase                                           sched.Phase
}

// ffDecision is one Decide call: the instance it served, its time, and
// the decision.
type ffDecision struct {
	inst int
	now  time.Duration
	ffChoice
}

// ffChoice is what a decision says, with each request list as a hash
// of its request IDs in order.
type ffChoice struct {
	mode                lora.Mode
	merged              int
	batch, evict, admit uint64
	hold                time.Duration
}

// loggedPolicy records every decision of the policy it wraps, so the
// differential test can hold the calls of a fast-forwarded run against
// the per-iteration reference's.
type loggedPolicy struct {
	sched.Policy
	inst int
	log  []ffDecision
}

func (p *loggedPolicy) Decide(it sched.Iteration) sched.Decision {
	d := p.Policy.Decide(it)
	p.log = append(p.log, ffDecision{inst: p.inst, now: it.Now, ffChoice: ffChoice{
		mode: d.Mode, merged: d.Merged, batch: idHash(d.Batch), evict: idHash(d.Evict), admit: idHash(d.Admit), hold: d.Hold,
	}})
	return d
}

// idHash hashes the request IDs of rs in order.
func idHash(rs []*sched.Request) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		binary.Write(h, binary.LittleEndian, r.ID)
	}
	return h.Sum64()
}

// logDecisions wraps every server's policy in a loggedPolicy.
func logDecisions(servers []*Server) {
	for i, srv := range servers {
		srv.opts.Policy = &loggedPolicy{Policy: srv.opts.Policy, inst: i}
	}
}

// ffCase is one configuration of the differential test. run replays it
// once, fresh, with its trace rows going to rec, and returns the
// instances that served it. windows says whether fast-forward must run
// windows in it: a run that preempts or autoscales permits none. skips
// says whether those windows must skip Decide calls: a deadline under
// urgency-weighted credit lets no decision hold.
type ffCase struct {
	name           string
	windows, skips bool
	run            func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server)
}

// withFastForward runs fn with fast-forward on or off.
func withFastForward(on bool, fn func()) {
	prev := fastForwardOff
	fastForwardOff = !on
	defer func() { fastForwardOff = prev }()
	fn()
}

// runFFCase replays c once and collects its outcome.
func runFFCase(t *testing.T, c ffCase) ffOutcome {
	t.Helper()
	rec := trace.NewRecorder()
	rep, tr, servers := c.run(t, rec)
	out := ffOutcome{rep: rep, digest: reportDigest(rep)}
	for _, srv := range servers {
		out.light += srv.lightIters
		if p, ok := srv.opts.Policy.(*loggedPolicy); ok {
			out.decides = append(out.decides, p.log...)
		}
	}
	for _, r := range tr {
		out.reqs = append(out.reqs, ffRequest{
			ID: r.ID, FirstSchedule: r.FirstSchedule, LastSchedule: r.LastSchedule,
			FirstToken: r.FirstToken, Finish: r.Finish, Emitted: r.Emitted, Phase: r.Phase,
		})
	}
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	out.trace = b.Bytes()
	return out
}

// compareFF fails t on the first difference between the per-iteration
// reference and the fast-forwarded run, and reports which of the
// reference's Decide calls the fast run skipped (see compareDecides).
func compareFF(t *testing.T, ref, got ffOutcome) []bool {
	t.Helper()
	if ref.digest != got.digest {
		t.Errorf("report digest %s with fast-forward, %s without", got.digest, ref.digest)
	}
	if len(ref.reqs) != len(got.reqs) {
		t.Fatalf("%d requests with fast-forward, %d without", len(got.reqs), len(ref.reqs))
	}
	for i := range ref.reqs {
		if ref.reqs[i] != got.reqs[i] {
			t.Fatalf("request %d: %+v with fast-forward, %+v without", ref.reqs[i].ID, got.reqs[i], ref.reqs[i])
		}
	}
	skipped := compareDecides(t, ref.decides, got.decides)
	if !bytes.Equal(ref.trace, got.trace) {
		t.Errorf("trace JSONL differs (%d bytes with fast-forward, %d without)", len(got.trace), len(ref.trace))
	}
	return skipped
}

// compareDecides requires the fast run's Decide calls (got) to be a
// subsequence of the reference's, at the same instance and time and
// with equal decisions, Hold included, and every reference call the
// fast run skipped to have returned the decision the fast run held on
// that instance at that point: its last call there. Both logs list each
// instance's calls together, in order, and an instance asks at most
// once per virtual time. skipped[i] reports whether the fast run
// skipped ref[i].
func compareDecides(t *testing.T, ref, got []ffDecision) (skipped []bool) {
	t.Helper()
	skipped = make([]bool, len(ref))
	j := 0
	var held *ffDecision
	for i, r := range ref {
		if held != nil && held.inst != r.inst {
			held = nil
		}
		if j < len(got) && got[j].inst == r.inst && got[j].now == r.now {
			if got[j] != r {
				t.Fatalf("decision %d: %+v with fast-forward, %+v without", i, got[j], r)
			}
			held = &got[j]
			j++
			continue
		}
		if held == nil || held.ffChoice != r.ffChoice {
			t.Fatalf("decision %d: %+v without fast-forward was skipped, but the fast run held %+v", i, r, held)
		}
		skipped[i] = true
	}
	if j < len(got) {
		t.Fatalf("fast-forward asked %+v, which the reference never asked", got[j])
	}
	return skipped
}

// countTrue counts the set flags.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// clusterFF runs cl over tr with rec installed.
func clusterFF(t *testing.T, cl *Cluster, tr workload.Trace, rec *trace.Recorder, run func(workload.Trace) (*Report, error)) (*Report, workload.Trace, []*Server) {
	t.Helper()
	cl.SetTraceRecorder(rec)
	logDecisions(cl.servers)
	return mustReport(t)(run(tr)), tr, cl.servers
}

// standaloneFF replays tr on one fresh instance of kind.
func standaloneFF(t *testing.T, kind SystemKind, tr workload.Trace, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
	t.Helper()
	srv, err := NewSystem(kind, simgpu.A100(), lmm.QwenVL7B())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTraceRecorder(rec)
	logDecisions([]*Server{srv})
	return mustReport(t)(srv.Run(tr)), tr, []*Server{srv}
}

var ffCases = []ffCase{
	{"managed/fleet-registry", true, true, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		cl, tr := goldenFleetCluster(t)
		return clusterFF(t, cl, tr, rec, cl.Run)
	}},
	{"managed/multi-tenant/preempt", false, false, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		cl := preemptCluster(t, 2)
		return clusterFF(t, cl, adversarialTrace(7, 600), rec, cl.Run)
	}},
	{"managed/multi-tenant/autoscale", false, false, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		cfg := SchedulingConfig{
			Tenants:   tenantClasses(),
			FairShare: true,
			HighWater: 8,
			Autoscale: &AutoscaleConfig{Min: 1, Max: 3, HighDepth: 16, Cooldown: time.Second},
		}
		cl, err := NewManagedCluster(1, NewLeastLoaded(), cfg, managedBuild(t))
		if err != nil {
			t.Fatal(err)
		}
		return clusterFF(t, cl, workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, 37)), rec, cl.Run)
	}},
	{"unmanaged/least-loaded/timeline", true, true, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		cl, err := NewClusterWithDispatch(4, NewLeastLoaded(), swapConstrained(lmm.QwenVL7B()))
		if err != nil {
			t.Fatal(err)
		}
		return clusterFF(t, cl, skewedSwapTrace(23), rec, cl.Run)
	}},
	{"unmanaged/round-robin/partitioned", true, true, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		cl := goldenCluster(t, NewRoundRobin())
		tr := workload.GenRetrieval(workload.DefaultRetrieval(24, 10*time.Second, 8, 0.6, 5))
		return clusterFF(t, cl, tr, rec, func(tr workload.Trace) (*Report, error) { return cl.runPartitioned(tr, 2) })
	}},
	{"standalone/retrieval", true, true, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		return standaloneFF(t, SystemVaLoRA, shortRetrieval(42), rec)
	}},
	{"standalone/retrieval/dLoRA", true, true, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		return standaloneFF(t, SystemDLoRA, shortRetrieval(43), rec)
	}},
	{"standalone/deadline-credit", true, false, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		// Urgency-weighted credit reorders the batch once a deadline
		// nears, so windows end on decisions that do not repeat.
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
		if err != nil {
			t.Fatal(err)
		}
		p := sched.NewVaLoRAPolicy()
		p.DeadlineCredit = true
		opts.Policy = p
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		var tr workload.Trace
		for i := range 12 {
			tr = append(tr, &sched.Request{
				ID: int64(i + 1), AdapterID: i % 3, InputTokens: 200, OutputTokens: 40 + 20*(i%4),
				Arrival: time.Duration(i) * 70 * time.Millisecond, Deadline: time.Duration(300+150*(i%5)) * time.Millisecond,
			})
		}
		srv.SetTraceRecorder(rec)
		logDecisions([]*Server{srv})
		return mustReport(t)(srv.Run(tr)), tr, []*Server{srv}
	}},
	{"standalone/retrieval/S-LoRA", true, true, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		return standaloneFF(t, SystemSLoRA, shortRetrieval(44), rec)
	}},
	// Video requests emit one token each: no decode, so no window.
	{"standalone/video", false, false, func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
		return standaloneFF(t, SystemSLoRA, workload.GenVideo(workload.DefaultVideo(4, 5*time.Second, 8, 0.6, 9)), rec)
	}},
}

// TestFastForwardMatchesPerIteration replays every case with
// fast-forward off and on and requires identical outcomes.
func TestFastForwardMatchesPerIteration(t *testing.T) {
	for _, c := range ffCases {
		t.Run(c.name, func(t *testing.T) {
			var ref, got ffOutcome
			withFastForward(false, func() { ref = runFFCase(t, c) })
			withFastForward(true, func() { got = runFFCase(t, c) })
			skipped := countTrue(compareFF(t, ref, got))
			if len(ref.trace) == 0 {
				t.Error("the case wrote no trace rows")
			}
			if ref.light != 0 {
				t.Errorf("%d light iterations with fast-forward off", ref.light)
			}
			if c.windows != (got.light > 0) {
				t.Errorf("%d light iterations with fast-forward on; want windows: %v", got.light, c.windows)
			}
			if c.skips != (skipped > 0) {
				t.Errorf("fast-forward skipped %d of %d Decide calls; want skips: %v", skipped, len(ref.decides), c.skips)
			}
		})
	}
	t.Run("standalone/hold-runs-out", func(t *testing.T) {
		// 32 long decodes on one adapter serve merged, and each decode
		// iteration grows from about 14.5 to 16 ms. θ = 40 ms holds a
		// merged decision while the last iteration took at most
		// θ − EstExec − SwitchLat = 15 ms, so mid-window the hold runs
		// out, the window asks again, and every member starves.
		c := ffCase{run: func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
			opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
			if err != nil {
				t.Fatal(err)
			}
			p := sched.NewVaLoRAPolicy()
			p.Theta = 40 * time.Millisecond
			opts.Policy = p
			srv, err := NewServer(opts)
			if err != nil {
				t.Fatal(err)
			}
			var tr workload.Trace
			for i := range srv.opts.MaxBatch {
				tr = append(tr, &sched.Request{ID: int64(i + 1), AdapterID: 1, InputTokens: 300, OutputTokens: 200 + i})
			}
			srv.SetTraceRecorder(rec)
			logDecisions([]*Server{srv})
			return mustReport(t)(srv.Run(tr)), tr, []*Server{srv}
		}}
		var ref, got ffOutcome
		withFastForward(false, func() { ref = runFFCase(t, c) })
		withFastForward(true, func() { got = runFFCase(t, c) })
		skipped := compareFF(t, ref, got)
		// The flip: a held merged decision, skipped by the window, then
		// the call where the hold ran out, which the window made.
		flips := 0
		for i := 1; i < len(ref.decides); i++ {
			prev, d := ref.decides[i-1], ref.decides[i]
			if prev.hold > 0 && prev.mode == lora.ModeMerged && skipped[i-1] && d.hold == 0 && d.mode != lora.ModeMerged && !skipped[i] {
				flips++
			}
		}
		if flips == 0 {
			t.Errorf("no window asked again when its hold ran out (%d of %d calls skipped)", countTrue(skipped), len(ref.decides))
		}
	})
	t.Run("standalone/arrival-at-iteration-start", func(t *testing.T) {
		// A window must stop before an iteration that starts exactly
		// at an arrival: the per-iteration engine ingests it first.
		long := func() *sched.Request {
			return &sched.Request{ID: 1, AdapterID: 1, InputTokens: 300, OutputTokens: 64}
		}
		var solo ffOutcome
		withFastForward(false, func() {
			solo = runFFCase(t, ffCase{run: func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
				return standaloneFF(t, SystemVaLoRA, workload.Trace{long()}, rec)
			}})
		})
		tie := solo.decides[8].now
		c := ffCase{run: func(t *testing.T, rec *trace.Recorder) (*Report, workload.Trace, []*Server) {
			late := &sched.Request{ID: 2, AdapterID: 2, InputTokens: 100, OutputTokens: 8, Arrival: tie}
			return standaloneFF(t, SystemVaLoRA, workload.Trace{long(), late}, rec)
		}}
		var ref, got ffOutcome
		withFastForward(false, func() { ref = runFFCase(t, c) })
		withFastForward(true, func() { got = runFFCase(t, c) })
		compareFF(t, ref, got)
		if got.light == 0 {
			t.Error("no fast-forward window ran")
		}
	})
	t.Run("live-engine", func(t *testing.T) {
		var ref, got []byte
		var light int
		withFastForward(false, func() { ref, _ = liveFF(t) })
		withFastForward(true, func() { got, light = liveFF(t) })
		if !bytes.Equal(ref, got) {
			t.Fatalf("live-engine calls differ:\nwith fast-forward:\n%s\nwithout:\n%s", got, ref)
		}
		if light == 0 {
			t.Error("the live engine ran no fast-forward window")
		}
	})
}

// liveFF drives a sequence of chat calls of growing length through one
// frontend's live engine and returns each call's virtual timing
// sidecar followed by the frontend's trace rows, and the light
// iterations the engine ran.
func liveFF(t *testing.T) ([]byte, int) {
	t.Helper()
	f := newTestFrontend(t)
	rec := trace.NewRecorder()
	f.SetTraceRecorder(rec)
	var out bytes.Buffer
	for i, n := range []int{1, 2, 3, 17, 64, 5, 128} {
		body := fmt.Sprintf(`{"adapter_id":%d,"input_tokens":%d,"output_tokens":%d,"images":%d}`, i%3, 200+40*i, n, i%2)
		resp := postJSON(t, f, "/v1/chat/completions", body)
		if resp.Code != http.StatusOK {
			t.Fatalf("call %d: status %d: %s", i, resp.Code, resp.Body)
		}
		sidecar, err := json.Marshal(decodeJSON(t, resp)["valora"])
		if err != nil {
			t.Fatal(err)
		}
		out.Write(sidecar)
		out.WriteByte('\n')
	}
	if err := rec.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	light := 0
	for _, eng := range f.engines {
		light += eng.srv.lightIters
	}
	return out.Bytes(), light
}

// steadyDecodeTrace is eight bursts of 16 long decodes on four
// adapters, two virtual seconds apart: between one burst's prefills
// and its first finish, every iteration repeats the last.
func steadyDecodeTrace() workload.Trace {
	var tr workload.Trace
	for i := range 128 {
		tr = append(tr, &sched.Request{
			ID: int64(i + 1), AdapterID: i % 4, InputTokens: 128, OutputTokens: 160 + i%64,
			Arrival: time.Duration(i/16) * 2 * time.Second,
		})
	}
	return tr
}

// BenchmarkStepSteadyDecode drains a standalone VaLoRA instance through
// steadyDecodeTrace with fast-forward on and off, and reports the
// wall-clock cost and the policy's Decide calls per virtual iteration.
func BenchmarkStepSteadyDecode(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("fast-forward=%v", on), func(b *testing.B) {
			withFastForward(on, func() {
				iters, decides := 0, 0
				for range b.N {
					b.StopTimer()
					srv, err := NewSystem(SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
					if err != nil {
						b.Fatal(err)
					}
					p := &countedPolicy{Policy: srv.opts.Policy}
					srv.opts.Policy = p
					tr := steadyDecodeTrace()
					b.StartTimer()
					rep, err := srv.Run(tr)
					if err != nil {
						b.Fatal(err)
					}
					iters += rep.Iterations
					decides += p.calls
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iteration")
				b.ReportMetric(float64(decides)/float64(iters), "decides/iteration")
			})
		})
	}
}

// countedPolicy counts the Decide calls of the policy it wraps.
type countedPolicy struct {
	sched.Policy
	calls int
}

func (p *countedPolicy) Decide(it sched.Iteration) sched.Decision {
	p.calls++
	return p.Policy.Decide(it)
}
