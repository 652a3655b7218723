// Package ring is the bounded journal behind the service's diagnostic
// records — the flight recorder, the ingest quarantine and the diagnostic
// bundle log: a thread-safe ring that keeps the newest entries and counts
// every entry ever added, so what it dropped stays known.
package ring

import "sync"

// Ring retains at most its capacity of entries, newest last: once full, each
// Add overwrites the oldest. A nil *Ring retains nothing and reports zeros.
type Ring[T any] struct {
	mu    sync.Mutex
	items []T
	start int    // index of the oldest retained entry
	total uint64 // entries ever added
	cap   int
	stamp func(*T, uint64)
}

// New creates a ring retaining at most capacity entries (capacity > 0).
// When stamp is non-nil, Add calls it on each entry it retains with the
// entry's sequence number: 1 for the first entry ever added, counting up in
// admission order. stamp runs under the ring's lock and must not call the
// ring.
func New[T any](capacity int, stamp func(e *T, seq uint64)) *Ring[T] {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	return &Ring[T]{cap: capacity, stamp: stamp}
}

// Add retains v as the newest entry, overwriting the oldest when the ring is
// full.
func (r *Ring[T]) Add(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	i := len(r.items)
	if i < r.cap {
		r.items = append(r.items, v)
	} else {
		i = r.start
		r.items[i] = v
		r.start = (r.start + 1) % r.cap
	}
	if r.stamp != nil {
		r.stamp(&r.items[i], r.total)
	}
}

// Entries returns the retained entries, oldest first.
func (r *Ring[T]) Entries() []T { return r.Tail(0) }

// Tail returns the newest n retained entries, oldest of them first; n <= 0,
// or n past the retained count, returns them all.
func (r *Ring[T]) Tail(n int) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.items)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]T, 0, n)
	for i := have - n; i < have; i++ {
		out = append(out, r.items[(r.start+i)%have])
	}
	return out
}

// Last returns the newest entry, or false when the ring is empty.
func (r *Ring[T]) Last() (T, bool) {
	var zero T
	if r == nil {
		return zero, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.items) == 0 {
		return zero, false
	}
	return r.items[(r.start+len(r.items)-1)%len(r.items)], true
}

// Contains reports whether a retained entry matches. match runs under the
// ring's lock and must not call the ring.
func (r *Ring[T]) Contains(match func(T) bool) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.items {
		if match(e) {
			return true
		}
	}
	return false
}

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// Total returns the number of entries ever added, dropped ones included.
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns the number of entries overwritten past the capacity.
func (r *Ring[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.items))
}
