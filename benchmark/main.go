// Command benchmark is the repository's performance benchmark. It runs
// four workloads against the valora simulator and its HTTP server,
// prints every end-to-end metric with its unit (or, with -trace 1, the
// per-layer ledger), and checks that the outputs are correct. Every
// repeat runs in a fresh child process. README.md describes the
// workloads, the metrics and how to read the output; run it with
// benchmark/run.sh, which builds this program and valora-server first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2]))
	}
	var (
		name    = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Int64("seed", 42, "seed passed to every input generator")
		seconds = flag.Int("seconds", 20, "measuring time per workload; sets the repeat count")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		server  = flag.String("server", "", "valora-server binary for live-openai (benchmark/run.sh builds it)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	defs, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, server: *server, scale: 1}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(len(defs))*runDeadline)
	defer cancel()
	results, err := runAll(ctx, cfg, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	env := stamp(cfg)
	for i, d := range defs {
		printTable(os.Stdout, d, env, results[i])
	}
	final := combine(defs, results)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		for i, d := range defs {
			for _, g := range results[i].gates {
				fmt.Fprintf(os.Stderr, "benchmark: %s: gate failed: %s\n", d.name, g)
			}
		}
		os.Exit(1)
	}
}

// runDeadline bounds one workload of an invocation; children and
// servers are killed when the invocation's deadline expires.
const runDeadline = 170 * time.Second

// config is one invocation's settings. scale shrinks every workload's
// size; it is 1 except in the smoke test.
type config struct {
	seed    int64
	seconds int
	traced  bool
	server  string
	scale   float64
}

// runner measures one workload, one round at a time, so a full
// invocation can interleave the workloads round by round.
type runner interface {
	rounds() int
	round(ctx context.Context, r int) error
	// result folds the rounds into metrics; speed scales wall-clock and
	// CPU-time metrics to the reference machine speed (see speed.go).
	result(speed float64) *result
}

// runAll runs the workloads' rounds with the workload order rotating
// from round to round, so slow drift on the machine spreads evenly
// over the workloads.
func runAll(ctx context.Context, cfg config, defs []*workloadDef) ([]*result, error) {
	runners := make([]runner, len(defs))
	probes := make([][]float64, len(defs))
	for i, d := range defs {
		r, err := newRunner(cfg, d)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	for r := 0; ; r++ {
		active := false
		for i := range runners {
			k := (i + r) % len(runners)
			if r >= runners[k].rounds() {
				continue
			}
			active = true
			if !cfg.traced {
				// Spread the run's probes evenly over its rounds;
				// scaled-down runs probe less, like everything else.
				want, n := int(math.Ceil(runProbes*cfg.scale)), runners[k].rounds()
				for len(probes[k]) < (want*(r+1)+n-1)/n {
					probes[k] = append(probes[k], speedProbe().Seconds())
				}
			}
			if err := runners[k].round(ctx, r); err != nil {
				return nil, fmt.Errorf("%s round %d: %w", defs[k].name, r, err)
			}
		}
		if !active {
			break
		}
	}
	out := make([]*result, len(runners))
	for i, r := range runners {
		speed := 1.0
		if !cfg.traced {
			speed = refProbe.Seconds() / median(probes[i])
		}
		out[i] = r.result(speed)
		out[i].speed, out[i].probeMS = speed, 1000*median(probes[i])
	}
	return out, nil
}

func newRunner(cfg config, d *workloadDef) (runner, error) {
	switch {
	case d.live && cfg.server == "":
		return nil, fmt.Errorf("%s needs -server (benchmark/run.sh builds valora-server)", d.name)
	case d.live && cfg.traced:
		return &liveLedger{cfg: cfg}, nil
	case d.live:
		return &liveRun{cfg: cfg, k: repeats(cfg, d)}, nil
	case cfg.traced:
		return &replayLedger{cfg: cfg, def: d}, nil
	default:
		return &replayRun{cfg: cfg, def: d, k: repeats(cfg, d)}, nil
	}
}

// repeats is the number of distinct-input repeats that fill the
// measuring time left after the speed probes. It depends only on the
// settings, never on the machine, so the same seed always replays the
// same inputs.
func repeats(cfg config, d *workloadDef) int {
	probes := runProbes * refProbe.Seconds()
	k := int((float64(cfg.seconds) - probes) / d.repeatSeconds)
	if k < minRepeats {
		k = minRepeats
	}
	return k
}

// minRepeats keeps every median, set-up time included, over at least
// three fresh processes.
const minRepeats = 3

// subSeed derives repeat r's input seed from the invocation seed.
func subSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// metricDef declares one reported metric and its unit; BENCHMARK.json
// lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of the server
// sees, reported with tracing off. Latencies are virtual on the
// replays and wall-clock on live-openai (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_rps", "req/s"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
	{"ttft_p50_ms", "ms"},
	{"ttft_p99_ms", "ms"},
	{"e2e_p99_ms", "ms"},
	{"slo_attainment", "fraction"},
}

// modules are the internal packages the ledger splits CPU and
// allocations by: the ones a replay or the live server runs after
// set-up. Samples in any other valora package count as "other",
// samples with no valora frame as "runtime".
var modules = []string{"atmm", "lmm", "lora", "metrics", "registry", "sched",
	"serving", "sim", "simgpu", "tiling", "trace", "other", "runtime"}

// perLayer is the traced ledger. Metrics a workload never exercises
// read 0 on it.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, m := range modules {
		out = append(out, metricDef{m + ".cpu_share", "fraction"})
	}
	for _, m := range modules {
		out = append(out, metricDef{m + ".alloc_bytes_per_req", "B"})
	}
	return append(out,
		metricDef{"process.alloc_bytes_per_req", "B"},
		metricDef{"process.allocs_per_req", "count"},
		metricDef{"sched.decide_ns", "ns"},
		metricDef{"sched.decide_calls", "count"},
		metricDef{"sched.batch_size_mean", "count"},
		metricDef{"sched.queue_wait_p50_ms", "ms"},
		metricDef{"sched.queue_wait_p99_ms", "ms"},
		metricDef{"sched.preemptions", "count"},
		metricDef{"sched.recompute_tokens", "count"},
		metricDef{"sched.shed", "count"},
		metricDef{"lora.switch_ns", "ns"},
		metricDef{"lora.switch_calls", "count"},
		metricDef{"lora.switches", "count"},
		metricDef{"lora.switch_stall_ms", "ms"},
		metricDef{"lora.swap_ins", "count"},
		metricDef{"lora.swap_stall_ms", "ms"},
		metricDef{"lora.swap_mb", "MB"},
		metricDef{"lora.gpu_tier_hit_rate", "fraction"},
		metricDef{"lmm.prefill_p99_ms", "ms"},
		metricDef{"lmm.decode_p99_ms", "ms"},
		metricDef{"lmm.base_ms", "ms"},
		metricDef{"atmm.layer_time_ns", "ns"},
		metricDef{"atmm.layer_time_calls", "count"},
		metricDef{"atmm.lora_ms", "ms"},
		metricDef{"registry.host_hit_rate", "fraction"},
		metricDef{"registry.remote_fetches", "count"},
		metricDef{"registry.prefetch_fetches", "count"},
		metricDef{"registry.chunk_fetches", "count"},
		metricDef{"registry.fetch_mb", "MB"},
		metricDef{"registry.deduped_mb", "MB"},
		metricDef{"registry.chunk_evictions", "count"},
		metricDef{"registry.cold_starts", "count"},
		metricDef{"registry.cold_ttft_p99_ms", "ms"},
		metricDef{"serving.iterations", "count"},
		metricDef{"serving.dispatch_ns", "ns"},
		metricDef{"serving.dispatch_calls", "count"},
		metricDef{"serving.engine_recycles", "count"},
		metricDef{"serving.frontend.handler_p50_us", "us"},
		metricDef{"serving.frontend.handler_p99_us", "us"},
		metricDef{"http.overhead_p50_us", "us"},
		metricDef{"metrics.scrape_p50_us", "us"},
		metricDef{"metrics.scrape_kb", "KB"},
		metricDef{"trace.rows", "count"},
		metricDef{"capacity.slo_rate_rps", "req/s"},
		metricDef{"bench.trace_overhead_frac", "fraction"},
		metricDef{"bench.cpu_samples", "count"},
	)
}()

// metric is one reported value. Only Value and Unit reach the JSON
// line; the quartiles and the note are for the table.
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	q1, q3    float64
	quartiles bool
	note      string
}

// result is one workload's outcome, and also the shape of the last
// line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	gates   []string // failed correctness gates, by name and reason
	repeat  int      // processes the medians are taken over
	speed   float64  // the machine-speed scale applied (see speed.go)
	probeMS float64  // the run's median speed-probe time
}

// newResult returns a result holding every metric of defs at 0.
func newResult(defs []metricDef) *result {
	res := &result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Unit: d.unit}
	}
	return res
}

// set records a metric declared in newResult's list.
func (res *result) set(name string, v float64) {
	m, ok := res.Metrics[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m.Value = v
	res.Metrics[name] = m
}

// setMedian records the median of vs with its quartiles.
func (res *result) setMedian(name string, vs []float64, note string) {
	res.set(name, median(vs))
	m := res.Metrics[name]
	m.q1, m.q3 = quartiles(vs)
	m.quartiles = true
	m.note = note
	res.Metrics[name] = m
}

// setScaled records the median of vs, and its quartiles, multiplied
// by scale, keeping the raw median in the note.
func (res *result) setScaled(name string, vs []float64, scale float64, note string) {
	raw := median(vs)
	res.setMedian(name, vs, fmt.Sprintf("%s; raw median %.6g", note, raw))
	m := res.Metrics[name]
	m.Value, m.q1, m.q3 = raw*scale, m.q1*scale, m.q3*scale
	res.Metrics[name] = m
}

func (res *result) fail(format string, args ...any) {
	res.gates = append(res.gates, fmt.Sprintf(format, args...))
}

// combine folds the workloads' results into the last output line.
// With one workload it is that workload's result; with several, each
// metric name is prefixed with its workload.
func combine(defs []*workloadDef, results []*result) *result {
	if len(results) == 1 {
		results[0].Correct = len(results[0].gates) == 0
		return results[0]
	}
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range results {
		out.Correct = out.Correct && len(r.gates) == 0
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			out.Metrics[defs[i].name+"."+name] = m
		}
	}
	return out
}
