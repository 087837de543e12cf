package main

import (
	"sort"
	"time"
)

// Machine speed. A shared machine's speed drifts by 10–30% over
// minutes as its other tenants come and go, and every wall-clock and
// CPU-time metric drifts with it. Between the untraced rounds the
// parent process, idle while no child runs, times speedProbe, fixed
// work of the simulator's kind, runProbes times per run. Each
// wall-clock and CPU-time metric is then scaled by refProbe over the
// run's median probe time, so it reads as at the machine speed where
// the probe takes refProbe. No change to the repository's code can
// change the probe, so the scaling cancels when two commits are
// compared, and it removes most of the drift between runs made minutes
// apart. The table keeps each raw median beside the scaled one.

// refProbe is speedProbe's median time on the reference machine
// (2-vCPU Intel Xeon VM, Go 1.24) when nothing else runs.
const refProbe = 60 * time.Millisecond

// runProbes is the number of probes a run's median probe time is
// taken over, spread evenly over its rounds.
const runProbes = 60

var probeSink int

// speedProbe times a fixed mix of pointer chasing over 2 MiB of small
// heap objects, map lookups and sorting, about refProbe of work.
func speedProbe() time.Duration {
	const n = 1 << 17
	type node struct {
		next *node
		key  int
	}
	t := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{key: i}
	}
	for _, nd := range nodes {
		nd.next = nodes[next()%n]
	}
	m := make(map[int]int, n/4)
	for i := 0; i < n/4; i++ {
		m[int(next()%n)] = i
	}
	sum := 0
	p := nodes[0]
	for i := 0; i < 8*n; i++ {
		p = p.next
		sum += m[p.key]
	}
	vs := make([]int, n)
	for r := 0; r < 4; r++ {
		for i := range vs {
			vs[i] = int(next() % 1_000_003)
		}
		sort.Ints(vs)
		sum += vs[n/2]
	}
	probeSink = sum
	return time.Since(t)
}
