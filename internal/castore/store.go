package castore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpurelay/internal/audit"
	"gpurelay/internal/obs"
	"gpurelay/internal/trace"
)

// Entry is one sealed recording in the store. The payload is the serialized
// recording exactly as the recorder sealed it; Sum is its content address
// and Fingerprint the truncated form the audit quarantine uses.
type Entry struct {
	// Key is the cache identity the entry was published under.
	Key Key
	// Sum is the SHA-256 of Payload — the content address.
	Sum [32]byte
	// Fingerprint is audit.Fingerprint(Payload): the truncated digest the
	// quarantine ring indexes by.
	Fingerprint string
	// Payload is the sealed recording's serialized bytes.
	Payload []byte
	// MAC is the recording's HMAC-SHA256 seal.
	MAC [32]byte
	// SessionKey verifies MAC. Cached recordings are sealed with a
	// cache-derived key (not a per-VM attestation key) so every client
	// admitted under the same Key receives byte-identical artifacts.
	SessionKey []byte
	// ProductID echoes the recording header's SKU binding for display.
	ProductID uint32
}

// Signed returns the entry's payload in the trace-layer sealed form.
func (e *Entry) Signed() *trace.Signed {
	return &trace.Signed{Payload: e.Payload, MAC: e.MAC}
}

// Config sizes a Store. The zero value is usable: 256 entries, 256 MiB,
// memory-only.
type Config struct {
	// MaxEntries bounds the memory tier's entry count (0 → 256).
	MaxEntries int
	// MaxBytes bounds the memory tier's payload bytes (0 → 256 MiB).
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier under this directory.
	// Evicted and published entries persist there; memory misses fall
	// through to a bounded, re-verified disk load.
	Dir string
}

const (
	defaultMaxEntries = 256
	defaultMaxBytes   = 256 << 20
	// maxBlobBytes caps a single payload the store admits or the disk tier
	// reads back. A blob file grown past it is treated as hostile and
	// rejected without being read.
	maxBlobBytes = 1 << 30
	// maxIndexBytes bounds one on-disk index record. Index records hold
	// four short strings and three hex digests; 64 KiB is generous.
	maxIndexBytes = 64 << 10
)

// Store is the content-addressed recording store: a bounded LRU memory tier
// over an optional disk tier. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	cfg   Config
	ll    *list.List // front = most recently used; values are *Entry
	byKey map[[32]byte]*list.Element
	bytes int64
	seen  map[[32]byte]bool // keys ever admitted (monotonic; for amplification)

	quarantine *audit.Quarantine
	reg        *obs.Registry
}

// New creates a store. With cfg.Dir set, the blob and index directories are
// created eagerly so a misconfigured path fails at construction, not at the
// first eviction.
func New(cfg Config) (*Store, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = defaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	if cfg.Dir != "" {
		for _, d := range []string{filepath.Join(cfg.Dir, "blobs"), filepath.Join(cfg.Dir, "index")} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("castore: %w", err)
			}
		}
	}
	return &Store{
		cfg:   cfg,
		ll:    list.New(),
		byKey: map[[32]byte]*list.Element{},
		seen:  map[[32]byte]bool{},
	}, nil
}

// Instrument attaches a fleet metrics registry. Nil detaches.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

// SetQuarantine attaches the audit quarantine the store must fail closed
// against. Nil detaches (no interlock).
func (s *Store) SetQuarantine(q *audit.Quarantine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantine = q
}

// count increments a counter if a registry is attached. Callers hold s.mu.
func (s *Store) count(name string, labels ...obs.Label) {
	if s.reg != nil {
		s.reg.Add(name, 1, labels...)
	}
}

func (s *Store) gauges() {
	if s.reg != nil {
		s.reg.GaugeSet(obs.MCacheEntries, int64(s.ll.Len()))
		s.reg.GaugeSet(obs.MCacheBytes, s.bytes)
	}
}

// Len returns the memory-tier entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the memory-tier payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// KeysSeen returns the number of distinct cache keys ever admitted — the
// denominator of record-amplification.
func (s *Store) KeysSeen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// Get returns the entry published under k, or (nil, false). A memory miss
// falls through to the disk tier, where the payload is re-read under the
// wire layer's default decode limits, its digest recomputed, its seal
// re-verified, and its structure re-audited before it may re-enter the
// memory tier — the disk is outside the trust boundary. A fingerprint currently quarantined
// is never served, whichever tier holds it.
func (s *Store) Get(k Key) (*Entry, bool) {
	kh := k.Hash()
	s.mu.Lock()
	if el, ok := s.byKey[kh]; ok {
		e := el.Value.(*Entry)
		if s.quarantine != nil && s.quarantine.Contains(e.Fingerprint) {
			// Quarantined while cached: evict and miss. Fail closed.
			s.removeLocked(el)
			s.count(obs.MCacheRejects, obs.L("reason", "quarantined"))
			s.count(obs.MCacheLookups, obs.L("result", "miss"))
			s.gauges()
			s.mu.Unlock()
			return nil, false
		}
		s.ll.MoveToFront(el)
		s.count(obs.MCacheLookups, obs.L("result", "hit"))
		s.mu.Unlock()
		return e, true
	}
	dir := s.cfg.Dir
	s.mu.Unlock()

	if dir == "" {
		s.mu.Lock()
		s.count(obs.MCacheLookups, obs.L("result", "miss"))
		s.mu.Unlock()
		return nil, false
	}
	e, err := s.loadDisk(k, kh)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || e == nil {
		if err != nil {
			s.count(obs.MCacheDiskLoads, obs.L("outcome", "reject"))
		} else {
			s.count(obs.MCacheDiskLoads, obs.L("outcome", "miss"))
		}
		s.count(obs.MCacheLookups, obs.L("result", "miss"))
		return nil, false
	}
	s.count(obs.MCacheDiskLoads, obs.L("outcome", "ok"))
	s.count(obs.MCacheLookups, obs.L("result", "hit"))
	s.admitLocked(kh, e)
	return e, true
}

// Put publishes a sealed recording into the store. The entry is verified
// before admission — digest, quarantine interlock, seal, bounded decode,
// structural audit — because a cache that republishes to the whole fleet is
// itself an ingestion boundary. With a disk tier configured the entry is
// also persisted.
func (s *Store) Put(e *Entry) error {
	if e == nil || len(e.Payload) == 0 {
		return fmt.Errorf("castore: empty entry")
	}
	sum := sha256.Sum256(e.Payload)
	if e.Sum == ([32]byte{}) {
		e.Sum = sum
	} else if e.Sum != sum {
		s.mu.Lock()
		s.count(obs.MCacheRejects, obs.L("reason", "seal"))
		s.mu.Unlock()
		return fmt.Errorf("castore: entry digest does not match payload")
	}
	e.Fingerprint = hex.EncodeToString(sum[:8])

	s.mu.Lock()
	q := s.quarantine
	s.mu.Unlock()

	if q != nil && q.Contains(e.Fingerprint) {
		s.mu.Lock()
		s.count(obs.MCacheRejects, obs.L("reason", "quarantined"))
		s.mu.Unlock()
		return fmt.Errorf("castore: fingerprint %s is quarantined", e.Fingerprint)
	}
	if int64(len(e.Payload)) > maxBlobBytes {
		s.mu.Lock()
		s.count(obs.MCacheRejects, obs.L("reason", "too_large"))
		s.mu.Unlock()
		return fmt.Errorf("castore: payload %d bytes exceeds blob cap %d", len(e.Payload), maxBlobBytes)
	}
	if err := s.verify(e); err != nil {
		return err
	}

	if s.cfg.Dir != "" {
		if err := s.persist(e); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.count(obs.MCacheFills)
	s.admitLocked(e.Key.Hash(), e)
	return nil
}

// verify re-checks an entry's seal and structure, decoding it under the wire
// layer's default limits. Failures are quarantined: a payload that reached
// the publish path with a bad seal is evidence.
func (s *Store) verify(e *Entry) error {
	r, err := trace.Verify(e.Signed(), e.SessionKey)
	if err == nil {
		err = r.Audit()
	}
	if err != nil {
		s.mu.Lock()
		q := s.quarantine
		s.count(obs.MCacheRejects, obs.L("reason", "seal"))
		s.mu.Unlock()
		if q != nil {
			q.Add(e.Payload, err)
		}
		return fmt.Errorf("castore: entry failed verification: %w", err)
	}
	return nil
}

// admitLocked inserts or refreshes an entry in the memory tier and evicts
// from the LRU tail past the budgets. Callers hold s.mu.
func (s *Store) admitLocked(kh [32]byte, e *Entry) {
	if !s.seen[kh] {
		s.seen[kh] = true
		s.count(obs.MCacheKeys)
	}
	if el, ok := s.byKey[kh]; ok {
		s.bytes -= int64(len(el.Value.(*Entry).Payload))
		el.Value = e
		s.bytes += int64(len(e.Payload))
		s.ll.MoveToFront(el)
	} else {
		s.byKey[kh] = s.ll.PushFront(e)
		s.bytes += int64(len(e.Payload))
	}
	for s.ll.Len() > 1 && (s.ll.Len() > s.cfg.MaxEntries || s.bytes > s.cfg.MaxBytes) {
		s.removeLocked(s.ll.Back())
		s.count(obs.MCacheEvictions)
	}
	s.gauges()
}

// removeLocked drops an element from the memory tier. Callers hold s.mu.
// The disk tier, when present, keeps its copy (re-verified on reload).
func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	s.ll.Remove(el)
	delete(s.byKey, e.Key.Hash())
	s.bytes -= int64(len(e.Payload))
}

// Purge drops any entry whose fingerprint matches, from both tiers. The
// service calls this when it quarantines a recording so the poison cannot
// be served even if the quarantine ring later evicts the evidence.
func (s *Store) Purge(fingerprint string) int {
	s.mu.Lock()
	var victims []*list.Element
	for el := s.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*Entry).Fingerprint == fingerprint {
			victims = append(victims, el)
		}
	}
	var keys [][32]byte
	for _, el := range victims {
		keys = append(keys, el.Value.(*Entry).Key.Hash())
		s.removeLocked(el)
	}
	if len(victims) > 0 {
		s.gauges()
	}
	dir := s.cfg.Dir
	s.mu.Unlock()

	if dir != "" {
		os.Remove(filepath.Join(dir, "blobs", fingerprint))
		for _, kh := range keys {
			os.Remove(filepath.Join(dir, "index", hex.EncodeToString(kh[:])+".json"))
		}
	}
	return len(victims)
}

// indexRecord is the on-disk index row: everything but the payload, which
// lives in blobs/<fingerprint> addressed by content.
type indexRecord struct {
	SKU        string `json:"sku"`
	Stack      string `json:"stack"`
	Workload   string `json:"workload"`
	InputShape string `json:"input_shape"`
	Sum        string `json:"sum"`
	MAC        string `json:"mac"`
	SessionKey string `json:"session_key"`
	ProductID  uint32 `json:"product_id"`
}

func (s *Store) persist(e *Entry) error {
	kh := e.Key.Hash()
	blob := filepath.Join(s.cfg.Dir, "blobs", e.Fingerprint)
	if err := os.WriteFile(blob, e.Payload, 0o644); err != nil {
		return fmt.Errorf("castore: persist blob: %w", err)
	}
	rec := indexRecord{
		SKU: e.Key.SKU, Stack: e.Key.Stack,
		Workload: e.Key.Workload, InputShape: e.Key.InputShape,
		Sum: hex.EncodeToString(e.Sum[:]), MAC: hex.EncodeToString(e.MAC[:]),
		SessionKey: hex.EncodeToString(e.SessionKey), ProductID: e.ProductID,
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	idx := filepath.Join(s.cfg.Dir, "index", hex.EncodeToString(kh[:])+".json")
	if err := os.WriteFile(idx, buf, 0o644); err != nil {
		return fmt.Errorf("castore: persist index: %w", err)
	}
	return nil
}

// loadDisk reads one entry back from the disk tier, treating every byte as
// untrusted: size caps before reads, digest recomputation, quarantine
// interlock, seal verification under the decode budget, structural audit.
// A failed load removes the poisoned files and quarantines the payload.
func (s *Store) loadDisk(k Key, kh [32]byte) (*Entry, error) {
	idxPath := filepath.Join(s.cfg.Dir, "index", hex.EncodeToString(kh[:])+".json")
	st, err := os.Stat(idxPath)
	if err != nil {
		return nil, nil // no disk entry: plain miss
	}
	if st.Size() > maxIndexBytes {
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: index record %d bytes exceeds cap", st.Size())
	}
	buf, err := os.ReadFile(idxPath)
	if err != nil {
		return nil, err
	}
	var rec indexRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: index record corrupt: %w", err)
	}
	// The index row must describe the key it is filed under — a renamed or
	// cross-linked index file must not alias one workload's recording to
	// another's admission.
	got := Key{SKU: rec.SKU, Stack: rec.Stack, Workload: rec.Workload, InputShape: rec.InputShape}
	if got.Hash() != kh {
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: index record key mismatch")
	}
	sum, err := hex.DecodeString(rec.Sum)
	if err != nil || len(sum) != 32 {
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: index digest corrupt")
	}
	macBytes, err := hex.DecodeString(rec.MAC)
	if err != nil || len(macBytes) != 32 {
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: index MAC corrupt")
	}
	skey, err := hex.DecodeString(rec.SessionKey)
	if err != nil || len(skey) == 0 {
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: index session key corrupt")
	}

	fp := hex.EncodeToString(sum[:8])
	blobPath := filepath.Join(s.cfg.Dir, "blobs", fp)
	bst, err := os.Stat(blobPath)
	if err != nil {
		return nil, fmt.Errorf("castore: blob missing for %s", fp)
	}
	if bst.Size() > maxBlobBytes {
		os.Remove(blobPath)
		os.Remove(idxPath)
		return nil, fmt.Errorf("castore: blob %d bytes exceeds cap %d", bst.Size(), maxBlobBytes)
	}
	payload, err := os.ReadFile(blobPath)
	if err != nil {
		return nil, err
	}

	e := &Entry{Key: k, Payload: payload, SessionKey: skey, ProductID: rec.ProductID}
	copy(e.Sum[:], sum)
	copy(e.MAC[:], macBytes)
	actual := sha256.Sum256(payload)
	if actual != e.Sum {
		s.rejectDisk(payload, blobPath, idxPath, fmt.Errorf("castore: blob digest mismatch for %s", fp))
		return nil, fmt.Errorf("castore: blob digest mismatch")
	}
	e.Fingerprint = fp

	s.mu.Lock()
	q := s.quarantine
	s.mu.Unlock()
	if q != nil && q.Contains(fp) {
		s.mu.Lock()
		s.count(obs.MCacheRejects, obs.L("reason", "quarantined"))
		s.mu.Unlock()
		return nil, fmt.Errorf("castore: fingerprint %s is quarantined", fp)
	}
	r, err := trace.Verify(e.Signed(), e.SessionKey)
	if err == nil {
		err = r.Audit()
	}
	if err != nil {
		s.rejectDisk(payload, blobPath, idxPath, err)
		return nil, fmt.Errorf("castore: disk entry failed verification: %w", err)
	}
	return e, nil
}

// rejectDisk quarantines a disk payload that failed verification and
// removes its files so the poison cannot be re-served.
func (s *Store) rejectDisk(payload []byte, blobPath, idxPath string, cause error) {
	s.mu.Lock()
	q := s.quarantine
	s.count(obs.MCacheRejects, obs.L("reason", "seal"))
	s.mu.Unlock()
	if q != nil {
		q.Add(payload, cause)
	}
	os.Remove(blobPath)
	os.Remove(idxPath)
}
