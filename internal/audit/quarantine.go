// Package audit tracks recordings rejected at the ingestion boundary. A
// rejected recording is evidence — of a buggy recorder, a corrupted store,
// or an active attack — so instead of vanishing into an error return it is
// quarantined: fingerprinted, tagged with a stable machine-readable reason,
// and counted, so operators can see rejection pressure in the fleet metrics
// and pull the offending payloads for forensics.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"

	"gpurelay/internal/grterr"
	"gpurelay/internal/ring"
	"gpurelay/internal/trace"
)

// Reason tokens, stable across releases: these appear as metric label
// values and in grtreplay's machine-readable rejection reports.
const (
	ReasonBadRecording      = "bad_recording"
	ReasonCheckpointCorrupt = "checkpoint_corrupt"
	ReasonSKUMismatch       = "sku_mismatch"
	ReasonAudit             = "audit"
	ReasonOther             = "other"
)

// Reason maps a rejection error to its stable token. Structural-audit
// failures are distinguished from codec/signature failures even though both
// wrap ErrBadRecording — the former means a well-formed, correctly sealed
// payload that lies about the session it describes, which is the more
// alarming signal.
func Reason(err error) string {
	var ae *trace.AuditError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &ae):
		return ReasonAudit
	case errors.Is(err, grterr.ErrBadRecording):
		return ReasonBadRecording
	case errors.Is(err, grterr.ErrCheckpointCorrupt):
		return ReasonCheckpointCorrupt
	case errors.Is(err, grterr.ErrSKUMismatch):
		return ReasonSKUMismatch
	default:
		return ReasonOther
	}
}

// Fingerprint identifies a rejected payload without retaining it: the first
// 16 hex digits of its SHA-256.
func Fingerprint(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// Entry is one quarantined rejection.
type Entry struct {
	// Fingerprint identifies the payload (truncated SHA-256).
	Fingerprint string
	// Reason is the stable rejection token (see the Reason* constants).
	Reason string
	// Detail is the rejection error's message.
	Detail string
	// Bytes is the payload size; the payload itself is not retained.
	Bytes int
}

// DefaultCapacity bounds a quarantine's retained entries. The counters keep
// counting past it; only the per-entry detail ring is bounded.
const DefaultCapacity = 128

// Quarantine is a bounded, thread-safe ring of rejection entries. When full
// the oldest entry is dropped — the total rejection count is monotonic and
// survives eviction.
type Quarantine struct{ entries *ring.Ring[Entry] }

// New creates a quarantine retaining at most capacity entries
// (DefaultCapacity if <= 0).
func New(capacity int) *Quarantine {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Quarantine{ring.New[Entry](capacity, nil)}
}

// Add quarantines one rejected payload and returns its entry.
func (q *Quarantine) Add(payload []byte, err error) Entry {
	e := Entry{
		Fingerprint: Fingerprint(payload),
		Reason:      Reason(err),
		Detail:      err.Error(),
		Bytes:       len(payload),
	}
	q.entries.Add(e)
	return e
}

// Entries returns the retained entries, oldest first.
func (q *Quarantine) Entries() []Entry { return q.entries.Entries() }

// Contains reports whether a fingerprint is currently retained in the
// ring. The recording cache uses this as its serve-side interlock: a
// quarantined fingerprint must never be served from — or admitted into —
// the content-addressed store while the evidence is still live. Eviction
// from the ring (capacity pressure) releases the hold; the fail-closed
// property callers rely on is "quarantined now → not servable now".
func (q *Quarantine) Contains(fingerprint string) bool {
	return q.entries.Contains(func(e Entry) bool { return e.Fingerprint == fingerprint })
}

// Total returns the number of rejections ever quarantined, including
// entries since evicted from the ring.
func (q *Quarantine) Total() int { return int(q.entries.Total()) }
