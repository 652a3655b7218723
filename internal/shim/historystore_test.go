package shim

import (
	"fmt"
	"sync"
	"testing"
)

func TestHistoryConcurrentUse(t *testing.T) {
	h := NewHistory(3)
	sigs := make([]string, 8)
	for i := range sigs {
		sigs[i] = fmt.Sprintf("fn|r%d", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sig := sigs[(g+i)%len(sigs)]
				h.Record(sig, Outcome{Reads: []uint32{uint32(g)}})
				h.Predict(sig)
				if i%50 == 0 {
					h.Invalidate(sig)
				}
				h.Signatures()
			}
		}(g)
	}
	wg.Wait()
}

func TestHistoryStoreSharesByKey(t *testing.T) {
	s := NewHistoryStore()
	k1 := HistoryKey{SKU: "Mali-G71 MP8", Stack: "acl-20.05", Workload: "MNIST"}
	k2 := HistoryKey{SKU: "Mali-G71 MP8", Stack: "acl-20.05", Workload: "VGG16"}
	if s.Get(k1) != s.Get(k1) {
		t.Fatal("same key returned distinct histories")
	}
	if s.Get(k1) == s.Get(k2) {
		t.Fatal("distinct keys share a history")
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d keys, want 2", s.Len())
	}
	// Warm state written through one handle is visible through another.
	h := s.Get(k1)
	for i := 0; i < 3; i++ {
		h.Record("sig", Outcome{Reads: []uint32{7}})
	}
	if _, ok := s.Get(k1).Predict("sig"); !ok {
		t.Fatal("warm history not shared through the store")
	}
}

func TestHistoryStoreConcurrentGet(t *testing.T) {
	s := NewHistoryStore()
	key := HistoryKey{SKU: "sku", Stack: "stack", Workload: "w"}
	got := make([]*History, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = s.Get(key)
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		if got[g] != got[0] {
			t.Fatal("concurrent Get returned distinct histories for one key")
		}
	}
}
