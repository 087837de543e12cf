package sim

import (
	"testing"
	"time"
)

// wakeProc models a serving instance: idle until work arrives through
// an arrival, then steppable at its scheduled time.
type wakeProc struct {
	at      time.Duration // Never = idle
	stepped []time.Duration
}

func (p *wakeProc) NextEventAt() time.Duration { return p.at }

func (p *wakeProc) Step() (bool, error) {
	if p.at == Never {
		return false, nil
	}
	p.stepped = append(p.stepped, p.at)
	p.at = Never
	return true, nil
}

// TestTimelineRefreshWakesIdleProcess covers the decrease-key path:
// a process idle at Add time must enter the heap when an arrival gives
// it work and calls Refresh.
func TestTimelineRefreshWakesIdleProcess(t *testing.T) {
	tl := &Timeline{}
	p := &wakeProc{at: Never}
	idx := tl.Add(p)
	tl.Arrivals = &arrivalFeed{items: []arrival{{5, func() error {
		p.at = tl.Now()
		tl.Refresh(idx)
		return nil
	}}}}
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.stepped) != 1 || p.stepped[0] != 5 {
		t.Fatalf("idle process not woken by Refresh: steps %v", p.stepped)
	}
}

// TestTimelineRefreshReordersProcesses covers key changes of in-heap
// processes: when an arrival moves a process earlier, it must overtake
// processes whose keys were previously smaller.
func TestTimelineRefreshReordersProcesses(t *testing.T) {
	tl := &Timeline{}
	var order []int
	procs := make([]*wakeProc, 3)
	idx := make([]int, 3)
	for i := range procs {
		procs[i] = &wakeProc{at: time.Duration(10 + i)}
		i := i
		idx[i] = tl.Add(&loggingProc{wakeProc: procs[i], id: i, order: &order})
	}
	tl.Arrivals = &arrivalFeed{items: []arrival{{1, func() error {
		procs[2].at = 2 // process 2 jumps ahead of 0 and 1
		tl.Refresh(idx[2])
		return nil
	}}}}
	if err := tl.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("step order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("step order %v, want %v", order, want)
		}
	}
}

type loggingProc struct {
	*wakeProc
	id    int
	order *[]int
}

func (p *loggingProc) Step() (bool, error) {
	ok, err := p.wakeProc.Step()
	if ok {
		*p.order = append(*p.order, p.id)
	}
	return ok, err
}
