package ring

import (
	"slices"
	"testing"
)

type entry struct {
	v   int
	seq uint64
}

func TestRingKeepsNewest(t *testing.T) {
	r := New(3, func(e *entry, seq uint64) { e.seq = seq })
	if _, ok := r.Last(); ok || r.Len() != 0 || len(r.Entries()) != 0 {
		t.Fatal("an empty ring reported entries")
	}
	for v := 1; v <= 5; v++ {
		r.Add(entry{v: v})
	}
	want := []entry{{3, 3}, {4, 4}, {5, 5}}
	if got := r.Entries(); !slices.Equal(got, want) {
		t.Fatalf("Entries = %v, want %v", got, want)
	}
	if got := r.Tail(2); !slices.Equal(got, want[1:]) {
		t.Fatalf("Tail(2) = %v, want %v", got, want[1:])
	}
	if got := r.Tail(9); !slices.Equal(got, want) {
		t.Fatalf("Tail(9) = %v, want %v", got, want)
	}
	if last, ok := r.Last(); !ok || last != want[2] {
		t.Fatalf("Last = %v, %v", last, ok)
	}
	if r.Len() != 3 || r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("Len %d, Total %d, Dropped %d; want 3, 5, 2", r.Len(), r.Total(), r.Dropped())
	}
	if !r.Contains(func(e entry) bool { return e.v == 4 }) || r.Contains(func(e entry) bool { return e.v == 2 }) {
		t.Fatal("Contains does not match the retained entries")
	}
}
