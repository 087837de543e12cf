package serving

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"valora/internal/lmm"
	"valora/internal/metrics"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/trace"
)

// Frontend is the HTTP interface of cmd/valora-server (the RPyC-style
// streaming frontend of §5, reduced to an OpenAI-compatible
// JSON-over-HTTP surface). It holds one persistent serving engine per
// system kind: each completion request is submitted into the live
// engine (whose virtual clock, prefix cache and adapter residency
// carry across requests) and stepped to completion, so consecutive
// requests see warmed state the way a long-running server would.
// Whole-trace replays are valora-bench experiments, not routes.
//
// Routes:
//
//	POST /v1/chat/completions  OpenAI chat (stream=true for SSE)
//	POST /v1/completions       OpenAI legacy completions
//	GET  /v1/models            registered adapters as models
//	GET  /metrics              Prometheus text exposition
//	GET  /v1/trace             captured per-request trace (JSONL)
//	GET  /healthz              liveness
//
// net/http serves handlers concurrently; mu guards the shared state
// (the sequence counter, the adapter registry, the recycle cap and the
// engine list), which a completion request resolves in one critical
// section, while each live engine carries its own lock — the
// step-wise engine is single-threaded by design, but requests to
// different systems proceed concurrently. The metrics collector and
// trace recorder are frontend-owned and outlive any single engine, so
// cumulative series survive live-engine recycling.
type Frontend struct {
	Kind  SystemKind
	GPU   *simgpu.GPU
	Model lmm.Config

	mux *http.ServeMux

	mu       sync.Mutex
	seq      int64
	engines  []*liveEngine // persistent live engines, one per kind
	liveCap  int           // requests per live engine before recycling (liveEngineRequestCap)
	adapters []AdapterCard
	slo      []*sloTrack

	prom     *metrics.Prom
	traceRec *trace.Recorder
}

// AdapterCard is one registered adapter, listed by /v1/models and
// addressable as an OpenAI "model" by name.
type AdapterCard struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// liveEngine is one persistent engine plus the lock serializing its
// single-threaded stepping. lastSwapIns/lastSwapBytes/lastSwapStall
// remember the engine totals already folded into the frontend's
// cumulative swap counters, so scrape-time folding adds only the
// delta and a retiring engine's final state is never lost.
type liveEngine struct {
	mu     sync.Mutex
	kind   SystemKind
	srv    *Server
	served int
	met    *engineMetrics

	lastSwapIns   int
	lastSwapBytes int64
	lastSwapStall time.Duration
}

// engineMetrics caches one system's metric handles. The handles
// resolve to the same underlying series when an engine is recycled
// (same family, same labels), which is what keeps every counter
// monotonic across recycling.
type engineMetrics struct {
	requests    *metrics.Counter
	rejected    *metrics.Counter
	tokensIn    *metrics.Counter
	tokensOut   *metrics.Counter
	coldStarts  *metrics.Counter
	preemptions *metrics.Counter
	swapIns     *metrics.Counter
	swapBytes   *metrics.Counter
	swapStall   *metrics.Counter
	recycles    *metrics.Counter

	ttft      *metrics.PromHistogram
	e2e       *metrics.PromHistogram
	queueWait *metrics.PromHistogram

	resident  *metrics.Gauge
	virtualMS *metrics.Gauge
}

// sloTrack accumulates one (system, tenant) deadline attainment ratio
// behind its gauge. Frontend-owned, so it too survives recycling.
type sloTrack struct {
	kind   SystemKind
	tenant string
	met    int
	total  int
	gauge  *metrics.Gauge
}

// liveEngineRequestCap bounds how many requests one live engine serves
// before being recycled with a fresh one. The engine's latency streams
// are fixed-memory histograms that requests do not grow; what does
// grow with an engine's life is its per-tenant stats map (one entry
// per distinct "user" label) and its virtual clock. Recycling
// bounds the map to the labels 100k requests can carry and restarts
// the clock. Cumulative /metrics series live on the frontend, not the
// engine, and are carried across the recycle.
const liveEngineRequestCap = 100000

// Per-request work bounds: the engine simulates one Step per output
// token while holding its engine lock.
const (
	maxInputTokens  = 1 << 20
	maxOutputTokens = 4096
)

// maxSynthAdapters bounds the distinct adapter_ids one live engine
// synthesizes descriptors for when no adapters are registered. Each
// distinct ID takes a slot in the engine's append-only adapter table,
// so without the bound a client cycling IDs would grow it for the
// engine's whole life. With adapters registered, the registry bounds
// the IDs instead.
const maxSynthAdapters = 1024

// NewFrontend builds the HTTP handler for a system/model pair. kind is
// the default system; requests may select another with the "system"
// field.
func NewFrontend(kind SystemKind, g *simgpu.GPU, model lmm.Config) *Frontend {
	f := &Frontend{
		Kind: kind, GPU: g, Model: model,
		mux:     http.NewServeMux(),
		liveCap: liveEngineRequestCap,
		prom:    metrics.NewProm(),
	}
	f.mux.HandleFunc("/v1/chat/completions", f.handleChatCompletions)
	f.mux.HandleFunc("/v1/completions", f.handleCompletions)
	f.mux.HandleFunc("/v1/models", f.handleModels)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	f.mux.HandleFunc("/v1/trace", f.handleTrace)
	f.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return f
}

// ServeHTTP dispatches to the frontend's routes.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// SetTraceRecorder installs a per-request trace sink: every request
// completed by a live engine (current and future, across recycles)
// appends one trace.Record, and GET /v1/trace serves the capture as
// JSONL.
func (f *Frontend) SetTraceRecorder(rec *trace.Recorder) {
	f.mu.Lock()
	f.traceRec = rec
	engines := append([]*liveEngine(nil), f.engines...)
	f.mu.Unlock()
	for _, eng := range engines {
		eng.mu.Lock()
		eng.srv.SetTraceRecorder(rec)
		eng.mu.Unlock()
	}
}

// TraceRecorder reports the installed trace sink (nil when tracing is
// off).
func (f *Frontend) TraceRecorder() *trace.Recorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.traceRec
}

// Metrics exposes the frontend's collector (the /metrics backing
// store) for tests and embedding servers.
func (f *Frontend) Metrics() *metrics.Prom { return f.prom }

// RegisterAdapters names the frontend's serveable adapters. Position
// is identity: the i-th name is adapter ID i, matching the IDs the
// adapter_id extension addresses directly. /v1/models lists them and
// OpenAI requests select one by model name.
func (f *Frontend) RegisterAdapters(names ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.adapters = f.adapters[:0]
	for i, n := range names {
		f.adapters = append(f.adapters, AdapterCard{ID: i, Name: n})
	}
}

// Adapters reports the registered adapter cards.
func (f *Frontend) Adapters() []AdapterCard {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]AdapterCard(nil), f.adapters...)
}

// adapterByModel resolves an OpenAI model name: the base model (or
// empty) maps to adapter 0, a registered adapter name to its ID.
// Callers must hold f.mu.
func (f *Frontend) adapterByModel(model string) (int, bool) {
	if model == "" || model == f.Model.Name {
		return 0, true
	}
	for _, a := range f.adapters {
		if a.Name == model {
			return a.ID, true
		}
	}
	return 0, false
}

// metricsFor registers (or re-resolves) the per-system metric
// handles.
func (f *Frontend) metricsFor(kind SystemKind) *engineMetrics {
	sys := metrics.Label{Name: "system", Value: string(kind)}
	lat := metrics.DefaultLatencyBuckets()
	return &engineMetrics{
		requests:    f.prom.Counter("valora_requests_total", "Requests completed by the live engines.", sys),
		rejected:    f.prom.Counter("valora_requests_rejected_total", "Requests rejected (prompt exceeds the KV cache).", sys),
		tokensIn:    f.prom.Counter("valora_tokens_in_total", "Prompt tokens of completed requests.", sys),
		tokensOut:   f.prom.Counter("valora_tokens_out_total", "Generated tokens of completed requests.", sys),
		coldStarts:  f.prom.Counter("valora_cold_starts_total", "Completed requests whose adapter required a remote fetch.", sys),
		preemptions: f.prom.Counter("valora_preemptions_total", "Mid-service displacements absorbed by completed requests.", sys),
		swapIns:     f.prom.Counter("valora_adapter_swap_ins_total", "Adapter swap-ins into the GPU pool.", sys),
		swapBytes:   f.prom.Counter("valora_adapter_swap_bytes_total", "Bytes moved by adapter swap-ins.", sys),
		swapStall:   f.prom.Counter("valora_adapter_swap_stall_ms_total", "Milliseconds of compute stalled on synchronous swaps.", sys),
		recycles:    f.prom.Counter("valora_engine_recycles_total", "Live engines retired at the request cap.", sys),
		ttft:        f.prom.Histogram("valora_ttft_ms", "Time to first token (ms, virtual).", lat, sys),
		e2e:         f.prom.Histogram("valora_e2e_ms", "End-to-end request latency (ms, virtual).", lat, sys),
		queueWait:   f.prom.Histogram("valora_queue_wait_ms", "Arrival-to-first-schedule delay (ms, virtual).", lat, sys),
		resident:    f.prom.Gauge("valora_adapter_pool_resident", "Adapters resident in the GPU pool.", sys),
		virtualMS:   f.prom.Gauge("valora_virtual_time_ms", "The live engine's virtual clock (ms).", sys),
	}
}

// instance returns the live engine for kind, building it on first use.
// Callers must hold f.mu.
func (f *Frontend) instance(kind SystemKind) (*liveEngine, error) {
	for _, eng := range f.engines {
		if eng.kind == kind {
			return eng, nil
		}
	}
	srv, err := NewSystem(kind, f.GPU, f.Model)
	if err != nil {
		return nil, err
	}
	srv.SetTraceRecorder(f.traceRec)
	eng := &liveEngine{kind: kind, srv: srv, met: f.metricsFor(kind)}
	f.engines = append(f.engines, eng)
	return eng, nil
}

// foldSwapStats folds the engine's cumulative swap accounting into the
// frontend's counters as a delta against what was already folded.
// Callers must hold eng.mu. Called at scrape time and — crucially —
// at retirement, so a recycled engine's totals are preserved.
func (eng *liveEngine) foldSwapStats() {
	ins, _, bytes, stall := eng.srv.PoolSwapStats()
	eng.met.swapIns.Add(float64(ins - eng.lastSwapIns))
	eng.met.swapBytes.Add(float64(bytes - eng.lastSwapBytes))
	eng.met.swapStall.Add(float64(stall-eng.lastSwapStall) / float64(time.Millisecond))
	eng.lastSwapIns, eng.lastSwapBytes, eng.lastSwapStall = ins, bytes, stall
}

// retire removes a capped engine from the live list after folding its
// final swap deltas; in-flight holders finish on it, the next request
// builds a fresh one. Callers must hold eng.mu (but not f.mu).
func (f *Frontend) retire(eng *liveEngine) {
	eng.foldSwapStats()
	eng.met.recycles.Inc()
	f.mu.Lock()
	for i, e := range f.engines {
		if e == eng {
			f.engines = append(f.engines[:i], f.engines[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// recordSLO folds one deadline-carrying completion into its (system,
// tenant) attainment gauge.
func (f *Frontend) recordSLO(kind SystemKind, req *sched.Request) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var t *sloTrack
	for _, e := range f.slo {
		if e.kind == kind && e.tenant == tenant {
			t = e
			break
		}
	}
	if t == nil {
		t = &sloTrack{kind: kind, tenant: tenant,
			gauge: f.prom.Gauge("valora_slo_attainment", "Fraction of deadline-carrying requests finishing within their deadline.",
				metrics.Label{Name: "system", Value: string(kind)},
				metrics.Label{Name: "tenant", Value: tenant})}
		f.slo = append(f.slo, t)
	}
	t.total++
	if req.Latency() <= req.Deadline {
		t.met++
	}
	t.gauge.Set(float64(t.met) / float64(t.total))
}

// runLive submits a validated request into its persistent engine,
// steps the engine until the request completes, and folds the
// completion into the metrics collector. The returned status is an
// HTTP status for the error (when err != nil).
func (f *Frontend) runLive(call liveCall) (virtualNow time.Duration, status int, err error) {
	eng, req := call.eng, call.req
	eng.mu.Lock()
	defer eng.mu.Unlock()
	srv := eng.srv
	if call.synthBound && srv.slotCount() >= maxSynthAdapters && !srv.knowsAdapter(req.AdapterID) {
		return 0, http.StatusBadRequest, fmt.Errorf("adapter_id %d: the engine already serves %d distinct adapters, its limit without registered adapters",
			req.AdapterID, maxSynthAdapters)
	}
	req.Arrival = srv.Now() // online arrival at the live engine's clock
	srv.Submit(req)
	for req.Phase != sched.PhaseDone {
		progressed, err := srv.Step()
		if err != nil {
			return 0, http.StatusInternalServerError, err
		}
		if !progressed {
			return 0, http.StatusInternalServerError, errors.New("engine stalled before request completion")
		}
	}
	eng.served++
	if eng.served >= call.recycleAt {
		f.retire(eng)
	}
	m := eng.met
	if req.Emitted == 0 {
		m.rejected.Inc()
		return srv.Now(), http.StatusUnprocessableEntity, errors.New("request rejected: prompt exceeds the KV cache")
	}
	m.requests.Inc()
	m.tokensIn.Add(float64(req.InputTokens))
	m.tokensOut.Add(float64(req.OutputTokens))
	m.ttft.ObserveDuration(req.FirstToken - req.Arrival)
	m.e2e.ObserveDuration(req.Latency())
	m.queueWait.ObserveDuration(req.FirstSchedule - req.Arrival)
	if req.ColdStart {
		m.coldStarts.Inc()
	}
	if req.PreemptCount > 0 {
		m.preemptions.Add(float64(req.PreemptCount))
	}
	if req.Deadline > 0 {
		f.recordSLO(call.kind, req)
	}
	return srv.Now(), http.StatusOK, nil
}

// systemOf validates an optional per-request system override.
func (f *Frontend) systemOf(name string) (SystemKind, error) {
	if name == "" {
		return f.Kind, nil
	}
	return SystemByName(name)
}

// handleMetrics serves the Prometheus text exposition. Scrape-time
// gauges (pool residency, virtual clock) sample the current live
// engines; cumulative counters were updated on the request path and
// only the engine-held swap totals need folding.
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	engines := append([]*liveEngine(nil), f.engines...)
	f.mu.Unlock()
	for _, eng := range engines {
		eng.mu.Lock()
		eng.foldSwapStats()
		eng.met.resident.Set(float64(eng.srv.PoolResidentCount()))
		eng.met.virtualMS.Set(float64(eng.srv.Now()) / float64(time.Millisecond))
		eng.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.prom.Write(w)
}

// handleTrace serves the captured per-request trace as JSONL.
func (f *Frontend) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := f.TraceRecorder()
	if rec == nil {
		http.Error(w, "trace capture is not enabled (start the server with -trace)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_ = rec.WriteJSONL(w)
}
