package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/trace"
)

const (
	// liveRequestsFull is one live repeat's closed-loop request count;
	// liveRepeatSeconds is about how long a repeat takes with server
	// start and shutdown.
	liveRequestsFull  = 25_000
	liveRepeatSeconds = 3.2
	// clientConns is the client's keep-alive connection count: one
	// per core of the reference machine, so the load generator never
	// runs more threads than there are CPUs.
	clientConns = 2
	// scrapeEvery makes connection 0 scrape /metrics after every 100th
	// of its requests, about every 200th request overall.
	scrapeEvery = 100
)

// liveAdapters are the adapter names the server registers.
var liveAdapters = []string{"detect", "count", "track", "inspect-line", "inspect-tower",
	"ocr", "caption", "grounding"}

func liveRequests(scale float64) int { return int(scaled(liveRequestsFull, scale, 50)) }

// liveOutcome is one live repeat: the server's set-up time and peak
// RSS, what the client saw, and the exited server process.
type liveOutcome struct {
	setup     time.Duration
	peakRSSKB int64
	client    clientResult
	proc      *process
}

// runLive starts a server with cmd, waits until it is healthy, runs the
// client against it, checks the final /metrics scrape, and stops the
// server with SIGTERM.
func runLive(ctx context.Context, cfg config, seed int64, res *result, cmd func(addr string) (*exec.Cmd, error)) (*liveOutcome, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c, err := cmd(addr)
	if err != nil {
		return nil, err
	}
	p, err := startProcess(c)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	setup, err := p.waitHealthy(ctx, addr)
	if err != nil {
		return nil, err
	}
	out := &liveOutcome{setup: setup, proc: p}
	if err := spawn(ctx, job{Role: "client", Seed: seed, Addr: addr, Requests: liveRequests(cfg.scale)}, &out.client); err != nil {
		return nil, err
	}
	cr := &out.client
	res.Attempted += cr.Completed + cr.Failed
	res.Failed += cr.Failed
	if cr.Failed > 0 {
		res.fail("responses: %d of %d failed; first: %s", cr.Failed, cr.Completed+cr.Failed, cr.FirstError)
	}
	status, body, err := get(ctx, addr, "/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("final scrape: status %d: %v", status, err)
	}
	if n, ok := promValue(body, `valora_requests_total{system="VaLoRA"}`); !ok || int(n) != cr.Completed {
		res.fail("final scrape: valora_requests_total %v, client completed %d", n, cr.Completed)
	}
	if out.peakRSSKB, err = peakRSSKB(strconv.Itoa(p.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if err := p.stop(); err != nil {
		return nil, err
	}
	return out, nil
}

var flushedRE = regexp.MustCompile(`flushed (\d+) trace rows`)

// realServer runs one live repeat against valora-server with trace
// capture on, and checks that SIGTERM flushed one row per request.
func realServer(ctx context.Context, cfg config, seed int64, res *result) (*liveOutcome, error) {
	dir, err := os.MkdirTemp("", "valora-live-") // run.sh points TMPDIR into the checkout
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out, err := runLive(ctx, cfg, seed, res, func(addr string) (*exec.Cmd, error) {
		return command(ctx, cfg.server, "-addr", addr,
			"-adapters", strings.Join(liveAdapters, ","), "-trace", filepath.Join(dir, "trace.jsonl")), nil
	})
	if err != nil {
		return nil, err
	}
	m := flushedRE.FindStringSubmatch(out.proc.stderr.String())
	if m == nil {
		res.fail("trace flush: no \"flushed N trace rows\" line after SIGTERM")
	} else if n, _ := strconv.Atoi(m[1]); n != out.client.Completed {
		res.fail("trace flush: flushed %d rows, client completed %d", n, out.client.Completed)
	}
	return out, nil
}

// liveRun measures live-openai's end-to-end metrics over k server
// processes, each loaded by its own client with its own inputs.
type liveRun struct {
	cfg  config
	k    int
	reps []*liveOutcome
	res  *result
}

func (w *liveRun) rounds() int { return w.k }

func (w *liveRun) round(ctx context.Context, r int) error {
	if w.res == nil {
		w.res = newResult(endToEnd)
	}
	out, err := realServer(ctx, w.cfg, subSeed(w.cfg.seed, r), w.res)
	if err != nil {
		return err
	}
	w.reps = append(w.reps, out)
	return nil
}

func (w *liveRun) result(speed float64) *result {
	res := w.res
	res.repeat = len(w.reps)
	var setup, rps, cpu, rss, ttft50, ttft99, e2e99 []float64
	met, attempted := 0, 0
	for _, o := range w.reps {
		c := o.client
		setup = append(setup, o.setup.Seconds())
		rps = append(rps, float64(c.Completed)/c.ElapsedS)
		cpu = append(cpu, float64(o.proc.cpuTime().Microseconds())/float64(c.Completed))
		rss = append(rss, float64(o.peakRSSKB)/1024)
		ttft50 = append(ttft50, c.TTFTP50MS)
		ttft99 = append(ttft99, c.TTFTP99MS)
		e2e99 = append(e2e99, c.E2EP99MS)
		met += c.SLOMet
		attempted += c.Completed + c.Failed
	}
	n := len(w.reps)
	per := fmt.Sprintf("median of %d servers, each a wall-clock percentile of %d requests", n, w.reps[0].client.Completed)
	res.setScaled("setup_s", setup, speed, fmt.Sprintf("median of %d server starts to the first /healthz 200", n))
	res.setScaled("wall_rps", rps, 1/speed, fmt.Sprintf("median of %d closed loops over %d connections", n, clientConns))
	res.setScaled("cpu_us_per_req", cpu, speed, fmt.Sprintf("median of %d server processes, user+sys", n))
	res.setMedian("peak_rss_mb", rss, fmt.Sprintf("median of %d server processes, VmHWM before SIGTERM", n))
	res.setScaled("ttft_p50_ms", ttft50, speed, per)
	res.setScaled("ttft_p99_ms", ttft99, speed, per)
	res.setScaled("e2e_p99_ms", e2e99, speed, per)
	res.set("slo_attainment", float64(met)/float64(attempted))
	m := res.Metrics["slo_attainment"]
	m.note = fmt.Sprintf("%d of %d requests with a first byte within %v", met, attempted, ttftSLO)
	res.Metrics["slo_attainment"] = m
	return res
}

// liveLedger is live-openai's traced run: the same client against
// valora-server, untraced, and against an in-process frontend set up
// as valora-server sets it up, behind a handler timer and profiled.
type liveLedger struct {
	cfg config
	res *result
}

func (w *liveLedger) rounds() int { return 1 }

func (w *liveLedger) round(ctx context.Context, _ int) error {
	seed := subSeed(w.cfg.seed, 0)
	res := newResult(perLayer)
	res.repeat = 2
	plain, err := realServer(ctx, w.cfg, seed, res)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = 0, 0 // count the traced repeat only
	traced, err := runLive(ctx, w.cfg, seed, res, func(addr string) (*exec.Cmd, error) {
		return childCommand(ctx, job{Role: "liveserver", Addr: addr})
	})
	if err != nil {
		return err
	}
	var lg map[string]float64
	if err := decodeLast(traced.proc.stdout.Bytes(), &lg); err != nil {
		return err
	}
	for name, v := range lg {
		res.set(name, v)
	}
	if lg["trace.rows"] != float64(traced.client.Completed) {
		res.fail("trace capture: %v rows, client completed %d", lg["trace.rows"], traced.client.Completed)
	}
	res.set("http.overhead_p50_us", traced.client.E2EP50MS*1000-lg["serving.frontend.handler_p50_us"])
	res.set("bench.trace_overhead_frac", traced.client.ElapsedS/plain.client.ElapsedS-1)
	w.res = res
	return nil
}

func (w *liveLedger) result(float64) *result { return w.res }

// clientResult is what the closed-loop client saw. Latencies are wall
// clock, from writing the request to the first and to the last body
// byte.
type clientResult struct {
	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	ElapsedS   float64 `json:"elapsed_s"`
	TTFTP50MS  float64 `json:"ttft_p50_ms"`
	TTFTP99MS  float64 `json:"ttft_p99_ms"`
	E2EP50MS   float64 `json:"e2e_p50_ms"`
	E2EP99MS   float64 `json:"e2e_p99_ms"`
	SLOMet     int     `json:"slo_met"`
}

// liveRequest is request i of a seeded live load: one of the adapters,
// 4–31 output tokens, a 16–400-character prompt, and streaming one
// time in five.
type liveRequest struct {
	model     string
	maxTokens int
	stream    bool
	prompt    string
}

const promptText = "inspect the insulator string on tower 17 for cracks, flashover marks and missing pins; "

func makeLiveRequest(seed int64, i int) liveRequest {
	h := mix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i))
	draw := func(n int) int {
		h = mix(h)
		return int(h % uint64(n))
	}
	q := liveRequest{
		model:     liveAdapters[draw(len(liveAdapters))],
		maxTokens: 4 + draw(28),
		stream:    draw(5) == 0,
	}
	n := 16 + draw(385)
	q.prompt = strings.Repeat(promptText, n/len(promptText)+1)[:n]
	return q
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runClient is the client child: a closed loop of j.Requests chat
// completions over clientConns keep-alive connections.
func runClient(j job) (*clientResult, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: clientConns, MaxConnsPerHost: clientConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	type conn struct {
		ttft, e2e   []float64
		failed, met int
		firstErr    string
	}
	conns := make([]conn, clientConns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(st *conn, scrapes bool) {
			defer wg.Done()
			fail := func(err error) {
				st.failed++
				if st.firstErr == "" {
					st.firstErr = err.Error()
				}
			}
			for done := 0; ; {
				i := int(next.Add(1) - 1)
				if i >= j.Requests {
					return
				}
				ttft, e2e, err := chat(hc, j.Addr, makeLiveRequest(j.Seed, i))
				if err != nil {
					fail(err)
					continue
				}
				st.ttft = append(st.ttft, ms(ttft))
				st.e2e = append(st.e2e, ms(e2e))
				if ttft <= ttftSLO {
					st.met++
				}
				if done++; scrapes && done%scrapeEvery == 0 {
					status, _, err := getWith(context.Background(), hc, j.Addr, "/metrics")
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("/metrics: status %d", status)
					}
					if err != nil {
						fail(err)
					}
				}
			}
		}(&conns[c], c == 0)
	}
	wg.Wait()

	out := &clientResult{ElapsedS: time.Since(start).Seconds()}
	var ttft, e2e []float64
	for _, st := range conns {
		ttft = append(ttft, st.ttft...)
		e2e = append(e2e, st.e2e...)
		out.Failed += st.failed
		out.SLOMet += st.met
		if out.FirstError == "" {
			out.FirstError = st.firstErr
		}
	}
	sort.Float64s(ttft)
	sort.Float64s(e2e)
	out.Completed = len(e2e)
	out.TTFTP50MS, out.TTFTP99MS = percentile(ttft, 0.5), percentile(ttft, 0.99)
	out.E2EP50MS, out.E2EP99MS = percentile(e2e, 0.5), percentile(e2e, 0.99)
	return out, nil
}

// chat sends one chat completion and checks the response: a 200 whose
// usage reports max_tokens completion tokens, and for a stream, a
// final data: [DONE].
func chat(hc *http.Client, addr string, q liveRequest) (ttft, e2e time.Duration, err error) {
	body, err := json.Marshal(map[string]any{
		"model":      q.model,
		"messages":   []map[string]string{{"role": "user", "content": q.prompt}},
		"max_tokens": q.maxTokens,
		"stream":     q.stream,
	})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/chat/completions", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.Peek(1); err != nil {
		return 0, 0, fmt.Errorf("empty body: %w", err)
	}
	ttft = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(br)
		return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var tokens int
	if q.stream {
		tokens, err = readStream(br)
	} else {
		var v struct {
			Usage struct {
				CompletionTokens int `json:"completion_tokens"`
			} `json:"usage"`
		}
		err = json.NewDecoder(br).Decode(&v)
		tokens = v.Usage.CompletionTokens
		if err == nil {
			_, err = io.Copy(io.Discard, br) // finish the body so the connection is reused
		}
	}
	e2e = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if tokens != q.maxTokens {
		return 0, 0, fmt.Errorf("usage.completion_tokens %d, want max_tokens %d", tokens, q.maxTokens)
	}
	return ttft, e2e, nil
}

// readStream reads an SSE completion to its end and returns the
// completion tokens its usage chunk reports; the stream must end with
// data: [DONE].
func readStream(br *bufio.Reader) (int, error) {
	sc := bufio.NewScanner(br)
	tokens, last := -1, ""
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		last = data
		if strings.Contains(data, `"usage"`) {
			var v struct {
				Usage struct {
					CompletionTokens int `json:"completion_tokens"`
				} `json:"usage"`
			}
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return 0, err
			}
			tokens = v.Usage.CompletionTokens
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if last != "[DONE]" {
		return 0, errors.New("stream did not end with data: [DONE]")
	}
	return tokens, nil
}

var probe = &http.Client{Timeout: 10 * time.Second}

func get(ctx context.Context, addr, path string) (int, []byte, error) {
	return getWith(ctx, probe, addr, path)
}

func getWith(ctx context.Context, hc *http.Client, addr, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// promValue finds one series' value in a Prometheus text exposition.
func promValue(exposition []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(exposition), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// handlerTimer times every request the frontend serves, per path, and
// keeps the size of the last /metrics response.
type handlerTimer struct {
	next http.Handler

	mu          sync.Mutex
	us          map[string][]float64
	scrapeBytes int
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	t := time.Now()
	h.next.ServeHTTP(cw, r)
	d := float64(time.Since(t).Microseconds())
	h.mu.Lock()
	h.us[r.URL.Path] = append(h.us[r.URL.Path], d)
	if r.URL.Path == "/metrics" {
		h.scrapeBytes = cw.n
	}
	h.mu.Unlock()
}

// countingWriter counts body bytes; it forwards Flush so streamed
// responses still stream.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// serveTraced is the traced live server child: the frontend set up as
// valora-server sets it up, behind a handler timer on j.Addr, with CPU
// and allocation profiles running until SIGTERM. It then prints the
// live workload's per-layer ledger.
func serveTraced(j job) (map[string]float64, error) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM)
	f := serving.NewFrontend(serving.SystemVaLoRA, simgpu.A100(), lmm.QwenVL7B())
	f.RegisterAdapters(liveAdapters...)
	rec := trace.NewRecorder()
	f.SetTraceRecorder(rec)
	timer := &handlerTimer{next: f, us: map[string][]float64{}}
	ln, err := net.Listen("tcp", j.Addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: timer}

	runtime.GC()
	before := allocByModule()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(cpuProfileHz) // pprof then keeps this rate
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case <-stop:
	case err := <-served:
		pprof.StopCPUProfile()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	<-served // http.ErrServerClosed once Shutdown returns
	pprof.StopCPUProfile()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	allocs := allocByModule()
	for m := range allocs {
		allocs[m] -= before[m]
	}
	cpu, err := foldCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	rows := rec.Rows()
	out := map[string]float64{"trace.rows": float64(len(rows))}
	layerShares(out, cpu, allocs, len(rows))
	if len(rows) > 0 {
		out["process.alloc_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(rows))
		out["process.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(rows))
	}
	var ph phases
	for _, r := range rows {
		ph.add(r.Arrival, r.Admission, r.FirstToken, r.Finish)
	}
	phaseMetrics(out, ph)

	timer.mu.Lock()
	handler := timer.us["/v1/chat/completions"]
	scrapes := timer.us["/metrics"]
	out["metrics.scrape_kb"] = float64(timer.scrapeBytes) / 1024
	timer.mu.Unlock()
	sort.Float64s(handler)
	sort.Float64s(scrapes)
	out["serving.frontend.handler_p50_us"] = percentile(handler, 0.5)
	out["serving.frontend.handler_p99_us"] = percentile(handler, 0.99)
	out["metrics.scrape_p50_us"] = percentile(scrapes, 0.5)

	var expo bytes.Buffer
	if err := f.Metrics().Write(&expo); err != nil {
		return nil, err
	}
	out["serving.engine_recycles"], _ = promValue(expo.Bytes(), `valora_engine_recycles_total{system="VaLoRA"}`)
	return out, nil
}
