package shim

import (
	"sync"

	"gpurelay/internal/obs"
)

// HistoryKey identifies one shared speculation history. Two record sessions
// produce interchangeable commit histories exactly when they dry run the
// same workload through the same GPU stack against the same GPU SKU: the
// driver then walks the same code paths, emits the same commit signatures,
// and the GPU answers with the same outcomes. The recording service keys
// its history store on this triple so concurrent clients recording the same
// model on the same hardware warm each other up automatically.
type HistoryKey struct {
	// SKU is the GPU hardware model name (e.g. "Mali-G71 MP8").
	SKU string
	// Stack is the cloud image's GPU stack variant (e.g.
	// "acl-20.05/libmali/bifrost-r24").
	Stack string
	// Workload is the model name (e.g. "MNIST").
	Workload string
}

// HistoryStore is a service-owned map of speculation histories, one per
// (SKU, stack, workload) triple, created on first use. It is safe for
// concurrent use; the Histories it hands out are themselves concurrency-safe
// and shared by reference, so every session recording under the same key
// contributes to — and benefits from — the same commit history.
type HistoryStore struct {
	mu sync.Mutex
	m  map[HistoryKey]*History
	// reg, when set, counts lookups (hit = the history already existed) —
	// the fleet's view of how often sessions warm each other up.
	reg *obs.Registry
}

// NewHistoryStore creates a store whose histories use the paper's
// confidence threshold, PaperK.
func NewHistoryStore() *HistoryStore {
	return &HistoryStore{m: make(map[HistoryKey]*History)}
}

// Instrument attaches a (fleet) metrics registry counting lookup hits and
// misses.
func (s *HistoryStore) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

// Get returns the history for a key, creating an empty one on first use.
func (s *HistoryStore) Get(key HistoryKey) *History {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.m[key]
	if !ok {
		h = NewHistory(PaperK)
		s.m[key] = h
	}
	if s.reg != nil {
		result := "hit"
		if !ok {
			result = "miss"
		}
		s.reg.Add(obs.MFleetHistoryLookups, 1, obs.L("result", result))
	}
	return h
}

// Len returns the number of distinct keys with a history.
func (s *HistoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Export snapshots every key's validated commit history (see
// History.ExportReady) for fleet-wide exchange. Keys with no Predict-ready
// signatures are omitted, so an exchange between mostly-cold services stays
// small.
func (s *HistoryStore) Export() map[HistoryKey]map[string]Outcome {
	s.mu.Lock()
	hists := make(map[HistoryKey]*History, len(s.m))
	for k, h := range s.m {
		hists[k] = h
	}
	reg := s.reg
	s.mu.Unlock()
	out := make(map[HistoryKey]map[string]Outcome)
	exported := int64(0)
	for k, h := range hists {
		ready := h.ExportReady()
		if len(ready) == 0 {
			continue
		}
		out[k] = ready
		exported += int64(len(ready))
	}
	if reg != nil && exported > 0 {
		reg.Add(obs.MSpecWarmExports, exported)
	}
	return out
}

// Import merges a peer's validated histories: each keyed history is created
// on demand and warm-started with the peer's Predict-ready outcomes (local
// outcomes always win; see History.WarmStart). Returns the number of
// signatures actually seeded.
func (s *HistoryStore) Import(snap map[HistoryKey]map[string]Outcome) int {
	seeded := 0
	for k, ready := range snap {
		if len(ready) == 0 {
			continue
		}
		seeded += s.Get(k).WarmStart(ready)
	}
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	if reg != nil && seeded > 0 {
		reg.Add(obs.MSpecWarmImports, int64(seeded))
	}
	return seeded
}
