package timesim

import (
	"container/heap"
	"time"
)

// event is one unit of future work on an engine's timeline: at time at,
// with deterministic ordering key key, run fn. seq is the admission
// sequence number, the final (non-deterministic under parallel scheduling,
// hence last) tiebreaker.
type event struct {
	at  time.Duration
	key uint64
	seq uint64
	fn  func() error
}

// eventQueue is a min-heap of events ordered by (time, key, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].key != q[j].key {
		return q[i].key < q[j].key
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*q = old[:n-1]
	return e
}

// push admits an event.
func (q *eventQueue) push(e event) { heap.Push(q, e) }

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event { return heap.Pop(q).(event) }
