package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// shardProc is a miniature serving instance: jobs arrive on a queue,
// each job runs for a number of steps, every step advances the local
// clock by a fixed iteration time and appends to the proc's log. Its
// NextEventAt/Step contract mirrors serving.Server.
type shardProc struct {
	id    int
	clock time.Duration
	queue []shardJob
	rem   int
	iter  time.Duration
	log   []string
}

type shardJob struct {
	at    time.Duration
	steps int
}

func (p *shardProc) submit(j shardJob) { p.queue = append(p.queue, j) }

func (p *shardProc) NextEventAt() time.Duration {
	if p.rem > 0 {
		return p.clock
	}
	if len(p.queue) > 0 {
		if p.queue[0].at < p.clock {
			return p.clock
		}
		return p.queue[0].at
	}
	return Never
}

func (p *shardProc) Step() (bool, error) {
	if p.rem == 0 {
		if len(p.queue) == 0 {
			return false, nil
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		if j.at > p.clock {
			p.clock = j.at
		}
		p.rem = j.steps
	}
	p.clock += p.iter
	p.rem--
	p.log = append(p.log, fmt.Sprintf("p%d@%v", p.id, p.clock))
	return true, nil
}

// jobFeed delivers a pre-routed job list to one proc.
type jobFeed struct {
	proc *shardProc
	jobs []shardJob
	cur  int
}

func (f *jobFeed) NextAt() time.Duration {
	if f.cur >= len(f.jobs) {
		return Never
	}
	return f.jobs[f.cur].at
}

func (f *jobFeed) Deliver() error {
	f.proc.submit(f.jobs[f.cur])
	f.cur++
	return nil
}

// genJobs builds a deterministic per-proc job schedule.
func genJobs(procs int) [][]shardJob {
	out := make([][]shardJob, procs)
	for i := 0; i < procs; i++ {
		at := time.Duration(i+1) * time.Millisecond
		for j := 0; j < 20; j++ {
			out[i] = append(out[i], shardJob{at: at, steps: 1 + (i+j)%3})
			at += time.Duration(3+((i*7+j*13)%11)) * time.Millisecond
		}
	}
	return out
}

func newProcs(n int, iter time.Duration) []*shardProc {
	procs := make([]*shardProc, n)
	for i := range procs {
		procs[i] = &shardProc{id: i, iter: iter}
	}
	return procs
}

// runSequential replays the job schedule on a Timeline — the reference
// observable order.
func runSequential(t *testing.T, jobs [][]shardJob) []*shardProc {
	t.Helper()
	procs := newProcs(len(jobs), 2*time.Millisecond)
	tl := &Timeline{}
	var feed arrivalFeed
	for i, js := range jobs {
		for _, j := range js {
			feed.items = append(feed.items, arrival{j.at, func() error {
				procs[i].submit(j)
				tl.Refresh(i)
				return nil
			}})
		}
	}
	sort.SliceStable(feed.items, func(a, b int) bool { return feed.items[a].at < feed.items[b].at })
	tl.Arrivals = &feed
	for i := range procs {
		tl.Add(procs[i])
	}
	if err := tl.Run(); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return procs
}

func checkSameLogs(t *testing.T, want, got []*shardProc, label string) {
	t.Helper()
	for i := range want {
		if len(want[i].log) != len(got[i].log) {
			t.Fatalf("%s: proc %d made %d steps, sequential made %d", label, i, len(got[i].log), len(want[i].log))
		}
		for j := range want[i].log {
			if want[i].log[j] != got[i].log[j] {
				t.Fatalf("%s: proc %d step %d = %q, sequential %q", label, i, j, got[i].log[j], want[i].log[j])
			}
		}
		if want[i].clock != got[i].clock {
			t.Fatalf("%s: proc %d final clock %v, sequential %v", label, i, got[i].clock, want[i].clock)
		}
	}
}

// TestShardFeedMatchesTimeline drains fed shards in one unbounded
// epoch and checks every process's observable history is bit-identical
// to the sequential Timeline, across shard counts.
func TestShardFeedMatchesTimeline(t *testing.T) {
	jobs := genJobs(8)
	want := runSequential(t, jobs)
	for _, shards := range []int{1, 2, 3, 8} {
		procs := newProcs(len(jobs), 2*time.Millisecond)
		group := make([]*Shard, shards)
		for s := range group {
			group[s] = NewShard(s)
		}
		for i, p := range procs {
			group[i%shards].Add(p, &jobFeed{proc: p, jobs: jobs[i]})
		}
		g := NewShardGroup(group...)
		g.Start()
		if err := g.AdvanceAll(Never); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		g.Stop()
		checkSameLogs(t, want, procs, fmt.Sprintf("shards=%d", shards))
	}
}

// TestShardEpochBarriers splits the same run into many epochs (the
// coordinator submits each job at its own barrier instead of using
// feeds) and checks the result is still identical: occurrences at
// exactly the horizon stay on the far side of the barrier.
func TestShardEpochBarriers(t *testing.T) {
	jobs := genJobs(5)
	want := runSequential(t, jobs)

	// Flatten arrivals into (at, proc, job) in canonical order.
	type arr struct {
		at        time.Duration
		proc, job int
	}
	var arrivals []arr
	for i, js := range jobs {
		for j := range js {
			arrivals = append(arrivals, arr{js[j].at, i, j})
		}
	}
	for i := 1; i < len(arrivals); i++ { // insertion sort, stable on at
		for j := i; j > 0 && arrivals[j-1].at > arrivals[j].at; j-- {
			arrivals[j-1], arrivals[j] = arrivals[j], arrivals[j-1]
		}
	}

	procs := newProcs(len(jobs), 2*time.Millisecond)
	shA, shB := NewShard(0), NewShard(1)
	for i, p := range procs {
		if i%2 == 0 {
			shA.Add(p, nil)
		} else {
			shB.Add(p, nil)
		}
	}
	g := NewShardGroup(shA, shB)
	g.Start()
	defer g.Stop()
	idx := 0
	for idx < len(arrivals) {
		horizon := arrivals[idx].at
		if err := g.AdvanceAll(horizon); err != nil {
			t.Fatal(err)
		}
		for idx < len(arrivals) && arrivals[idx].at == horizon {
			a := arrivals[idx]
			procs[a.proc].submit(jobs[a.proc][a.job])
			idx++
		}
	}
	if err := g.AdvanceAll(Never); err != nil {
		t.Fatal(err)
	}
	checkSameLogs(t, want, procs, "epoch barriers")
}

// errProc fails its Step; used to check deterministic error selection.
type errProc struct{ id int }

func (p *errProc) NextEventAt() time.Duration { return time.Millisecond }
func (p *errProc) Step() (bool, error)        { return false, fmt.Errorf("proc %d boom", p.id) }

// TestAdvanceAllDeterministicError checks the failing process with the
// lowest (shard, process) identity wins regardless of scheduling —
// every shard here fails concurrently, and within a shard two
// processes fail, so both tiers of the tie-break are exercised.
func TestAdvanceAllDeterministicError(t *testing.T) {
	for round := 0; round < 5; round++ {
		shards := make([]*Shard, 4)
		for i := range shards {
			shards[i] = NewShard(i)
			shards[i].Add(&errProc{id: i * 10}, nil)
			shards[i].Add(&errProc{id: i*10 + 1}, nil)
		}
		g := NewShardGroup(shards...)
		g.Start()
		err := g.AdvanceAll(Never)
		g.Stop()
		if err == nil || err.Error() != "proc 0 boom" {
			t.Fatalf("round %d: got error %v, want proc 0's", round, err)
		}
	}
}

// TestAdvanceAllInlineError checks the stopped-group (inline) path
// reports the same deterministic error as the live path.
func TestAdvanceAllInlineError(t *testing.T) {
	shards := make([]*Shard, 3)
	for i := range shards {
		shards[i] = NewShard(i)
		shards[i].Add(&errProc{id: i}, nil)
	}
	g := NewShardGroup(shards...)
	if err := g.AdvanceAll(Never); err == nil || err.Error() != "proc 0 boom" {
		t.Fatalf("inline: got error %v, want proc 0's", err)
	}
}

// TestShardGroupLifecycle drives the same workload through a mix of
// live and stopped phases: Start idempotence, Stop → inline fallback
// mid-run, and restart after Stop must all leave the observable
// history bit-identical to the sequential reference.
func TestShardGroupLifecycle(t *testing.T) {
	jobs := genJobs(6)
	want := runSequential(t, jobs)

	procs := newProcs(len(jobs), 2*time.Millisecond)
	shards := []*Shard{NewShard(0), NewShard(1), NewShard(2)}
	for i, p := range procs {
		shards[i%3].Add(p, &jobFeed{proc: p, jobs: jobs[i]})
	}
	g := NewShardGroup(shards...)

	g.Start()
	g.Start() // idempotent: second Start must not double the workers
	if err := g.AdvanceAll(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	g.Stop() // idempotent
	// Stopped group: AdvanceAll falls back to inline advancement.
	if err := g.AdvanceAll(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Restart after Stop resumes parallel epochs.
	g.Start()
	if err := g.AdvanceAll(Never); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	checkSameLogs(t, want, procs, "lifecycle")
}

// TestWorkStealingUnevenShards loads one shard with almost all of the
// work so the steal path must carry it: with 2 shards and 7 of 8 procs
// on shard 0, the run only matches the sequential reference if thieves
// advance processes they don't own without breaking per-process state.
func TestWorkStealingUnevenShards(t *testing.T) {
	jobs := genJobs(8)
	want := runSequential(t, jobs)

	procs := newProcs(len(jobs), 2*time.Millisecond)
	heavy, light := NewShard(0), NewShard(1)
	for i, p := range procs {
		sh := heavy
		if i == len(procs)-1 {
			sh = light
		}
		sh.Add(p, &jobFeed{proc: p, jobs: jobs[i]})
	}
	g := NewShardGroup(heavy, light)
	g.Start()
	defer g.Stop()
	// Many epochs, so steal cursors are reset and re-raced repeatedly.
	for h := 5 * time.Millisecond; ; h += 5 * time.Millisecond {
		if err := g.AdvanceAll(h); err != nil {
			t.Fatal(err)
		}
		if g.NextAt() == Never {
			break
		}
	}
	if err := g.AdvanceAll(Never); err != nil {
		t.Fatal(err)
	}
	checkSameLogs(t, want, procs, "steal uneven")
}

// TestShardNoProgressError mirrors Timeline's liveness contract.
func TestShardNoProgressError(t *testing.T) {
	sh := NewShard(0)
	sh.Add(stuckProc{}, nil)
	if err := sh.AdvanceTo(Never); err == nil {
		t.Fatal("expected a no-progress error")
	}
}

type stuckProc struct{}

func (stuckProc) NextEventAt() time.Duration { return time.Second }
func (stuckProc) Step() (bool, error)        { return false, nil }
