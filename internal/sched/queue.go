package sched

import "time"

// ArrivalQueue holds submitted-but-not-yet-ingested requests ordered
// by arrival time. It is a binary min-heap keyed on (arrival,
// submission sequence), so Push is O(log n) regardless of submission
// order: trace replay pushes already-sorted requests, while online
// submissions land at arbitrary points. Ties preserve insertion order
// (FIFO), matching the previous sorted-slice semantics exactly. The
// sift operations are inlined (rather than going through
// container/heap) so Push/PopDue stay allocation-free on the hot path
// apart from the amortized slice growth.
type ArrivalQueue struct {
	h []arrivalItem
	// seq stamps each pushed request so equal arrival times pop in
	// insertion order.
	seq uint64
}

// arrivalItem is one heap slot.
type arrivalItem struct {
	req *Request
	seq uint64
}

// less orders slots by (arrival, submission sequence).
func (q *ArrivalQueue) less(i, j int) bool {
	if q.h[i].req.Arrival != q.h[j].req.Arrival {
		return q.h[i].req.Arrival < q.h[j].req.Arrival
	}
	return q.h[i].seq < q.h[j].seq
}

// up restores the heap property from leaf i toward the root.
func (q *ArrivalQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// down restores the heap property from the root toward the leaves.
func (q *ArrivalQueue) down(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

// Len reports the number of queued requests.
func (q *ArrivalQueue) Len() int { return len(q.h) }

// Push inserts r in arrival order (after any request with the same
// arrival time).
//
//valora:hotpath
func (q *ArrivalQueue) Push(r *Request) {
	q.seq++
	q.h = append(q.h, arrivalItem{req: r, seq: q.seq})
	q.up(len(q.h) - 1)
}

// Peek returns the earliest-arriving request without removing it, or
// nil when empty.
func (q *ArrivalQueue) Peek() *Request {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0].req
}

// PopDue removes and returns the earliest request if it has arrived by
// now, or nil.
//
//valora:hotpath
func (q *ArrivalQueue) PopDue(now time.Duration) *Request {
	if len(q.h) == 0 || q.h[0].req.Arrival > now {
		return nil
	}
	r := q.h[0].req
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = arrivalItem{}
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return r
}
