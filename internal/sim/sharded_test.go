package sim

import (
	"fmt"
	"sort"
	"strings"
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

// TestShardFeedMatchesTimeline drains fed processes with
// RunIndependent and checks every process's observable history is
// bit-identical to the sequential Timeline, across worker counts.
func TestShardFeedMatchesTimeline(t *testing.T) {
	jobs := genJobs(8)
	want := runSequential(t, jobs)
	for _, workers := range []int{1, 2, 3, 8} {
		procs := newProcs(len(jobs), 2*time.Millisecond)
		ps := make([]Process, len(procs))
		feeds := make([]Feed, len(procs))
		for i, p := range procs {
			ps[i], feeds[i] = p, &jobFeed{proc: p, jobs: jobs[i]}
		}
		if err := RunIndependent(ps, feeds, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkSameLogs(t, want, procs, fmt.Sprintf("workers=%d", workers))
	}
}

// TestRunIndependentMoreWorkersThanProcs checks a worker count above
// the process count (and a non-positive one) still drains every
// process exactly once.
func TestRunIndependentMoreWorkersThanProcs(t *testing.T) {
	jobs := genJobs(3)
	want := runSequential(t, jobs)
	for _, workers := range []int{0, 16} {
		procs := newProcs(len(jobs), 2*time.Millisecond)
		ps := make([]Process, len(procs))
		feeds := make([]Feed, len(procs))
		for i, p := range procs {
			ps[i], feeds[i] = p, &jobFeed{proc: p, jobs: jobs[i]}
		}
		if err := RunIndependent(ps, feeds, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkSameLogs(t, want, procs, fmt.Sprintf("workers=%d", workers))
	}
	if err := RunIndependent(nil, nil, 4); err != nil {
		t.Fatalf("no processes: %v", err)
	}
}

// errProc fails its Step; used to check deterministic error selection.
type errProc struct{ id int }

func (p *errProc) NextEventAt() time.Duration { return time.Millisecond }
func (p *errProc) Step() (bool, error)        { return false, fmt.Errorf("proc %d boom", p.id) }

// TestRunIndependentDeterministicError checks the lowest-indexed
// failing process's error wins regardless of scheduling, and that the
// healthy processes behind it are still drained.
func TestRunIndependentDeterministicError(t *testing.T) {
	jobs := genJobs(8)
	want := runSequential(t, jobs)
	for round := 0; round < 5; round++ {
		for _, workers := range []int{1, 2, 4, 8} {
			procs := newProcs(len(jobs), 2*time.Millisecond)
			ps := make([]Process, len(procs))
			feeds := make([]Feed, len(procs))
			for i, p := range procs {
				ps[i], feeds[i] = p, &jobFeed{proc: p, jobs: jobs[i]}
				if i >= 2 && i%2 == 0 {
					ps[i], feeds[i] = &errProc{id: i}, nil
				}
			}
			err := RunIndependent(ps, feeds, workers)
			if err == nil || err.Error() != "proc 2 boom" {
				t.Fatalf("round %d workers=%d: got error %v, want proc 2's", round, workers, err)
			}
			for _, i := range []int{0, 1, 3, 5, 7} {
				checkSameLogs(t, want[i:i+1], procs[i:i+1], fmt.Sprintf("round %d workers=%d proc %d", round, workers, i))
			}
		}
	}
}

// tieProc has one step due at a fixed time; it records its step in a
// log shared with its feed.
type tieProc struct {
	at   time.Duration
	done bool
	log  *[]string
}

func (p *tieProc) NextEventAt() time.Duration {
	if p.done {
		return Never
	}
	return p.at
}

func (p *tieProc) Step() (bool, error) {
	p.done = true
	*p.log = append(*p.log, fmt.Sprintf("step@%v", p.at))
	return true, nil
}

// tieFeed delivers one item at a fixed time into a shared log.
type tieFeed struct {
	at        time.Duration
	delivered bool
	log       *[]string
}

func (f *tieFeed) NextAt() time.Duration {
	if f.delivered {
		return Never
	}
	return f.at
}

func (f *tieFeed) Deliver() error {
	f.delivered = true
	*f.log = append(*f.log, fmt.Sprintf("deliver@%v", f.at))
	return nil
}

// TestRunIndependentFeedBeforeStep pins the tie rule: a delivery and a
// step at the same virtual time go to the feed first, as Timeline's
// arrival-before-step rule does; an earlier step still runs first.
func TestRunIndependentFeedBeforeStep(t *testing.T) {
	cases := []struct {
		step, feed time.Duration
		want       string
	}{
		{5 * time.Millisecond, 5 * time.Millisecond, "deliver@5ms step@5ms"},
		{4 * time.Millisecond, 5 * time.Millisecond, "step@4ms deliver@5ms"},
		{6 * time.Millisecond, 5 * time.Millisecond, "deliver@5ms step@6ms"},
	}
	for _, tc := range cases {
		var log []string
		p := &tieProc{at: tc.step, log: &log}
		f := &tieFeed{at: tc.feed, log: &log}
		if err := RunIndependent([]Process{p}, []Feed{f}, 1); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(log, " "); got != tc.want {
			t.Fatalf("step@%v feed@%v: order %q, want %q", tc.step, tc.feed, got, tc.want)
		}
	}
}

// TestShardNoProgressError mirrors Timeline's liveness contract.
func TestShardNoProgressError(t *testing.T) {
	err := RunIndependent([]Process{&tieProc{log: new([]string)}, stuckProc{}}, make([]Feed, 2), 2)
	if err == nil || !strings.Contains(err.Error(), "process 1 advertised an event at 1s but made no progress") {
		t.Fatalf("got error %v, want process 1's no-progress error", err)
	}
}

type stuckProc struct{}

func (stuckProc) NextEventAt() time.Duration { return time.Second }
func (stuckProc) Step() (bool, error)        { return false, nil }
