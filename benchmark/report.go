package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// median of vs (the mean of the middle two for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs by the method
// of Python's statistics.quantiles(vs, n=4), the method the spread of
// repeated runs is judged by.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		ld, m, n := len(s), len(s)+1, 4
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of s, which
// must be sorted.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// environment is the stamp printed with every table.
type environment struct {
	commit, cpu, goVersion string
	dirty                  bool
	nproc, gomaxprocs      int
	seed                   int64
}

func stamp(cfg config) environment {
	env := environment{commit: "unknown", cpu: cpuModel(), goVersion: runtime.Version(),
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), seed: cfg.seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.commit = s.Value
			case "vcs.modified":
				env.dirty = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable writes one workload's metrics as a name/value/unit table
// headed by the environment stamp. Medians carry the quartiles of the
// repeats they were taken over.
func printTable(w io.Writer, d *workloadDef, env environment, res *result) {
	fmt.Fprintf(w, "# workload %s: %s\n", d.name, d.why)
	fmt.Fprintf(w, "# commit %s dirty=%t | cpu %s | nproc %d GOMAXPROCS %d | %s | seed %d | repeats %d\n",
		env.commit, env.dirty, env.cpu, env.nproc, env.gomaxprocs, env.goVersion, env.seed, res.repeat)
	fmt.Fprintf(w, "# correct %t | attempted %d | failed %d\n", len(res.gates) == 0, res.Attempted, res.Failed)
	if res.probeMS > 0 {
		fmt.Fprintf(w, "# machine speed: probe median %.4g ms (reference %v); times scaled by %.4g, rates by its inverse\n",
			res.probeMS, refProbe, res.speed)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-34s %14.6g %-9s", name, m.Value, m.Unit)
		if m.quartiles {
			line += fmt.Sprintf(" [q1 %.6g, q3 %.6g]", m.q1, m.q3)
		}
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, g := range res.gates {
		fmt.Fprintf(w, "# GATE FAILED: %s\n", g)
	}
}
