// Diagnostic bundles: the sealed evidence artifact captured automatically on
// a failure path (ingest rejection, resync divergence, checkpoint
// corruption). A bundle packages everything an operator needs to triage the
// failure after the fact — the flight-recorder tail leading up to it, a
// metrics snapshot, and the quarantine entry when one exists — and is sealed
// with HMAC-SHA256 so the evidence itself is tamper-evident, the same
// property recordings and checkpoints already have.
package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"gpurelay/internal/obs"
	"gpurelay/internal/ring"
	"gpurelay/internal/trace"
	"gpurelay/internal/wire"
)

// BundleSchema identifies the diagnostic-bundle JSON payload version.
const BundleSchema = "grt-diag/1"

// BundleMagic is the on-disk magic of a sealed bundle file ("GRTD"), followed
// by uint32-LE length-prefixed chunks (payload, mac, key) — the same chunk
// layout as recording ("GRTB") and checkpoint ("GRTC") files.
const BundleMagic = "GRTD"

// Bundle is one diagnostic bundle's payload: what failed, when (virtual
// time), and the observability state around the failure.
type Bundle struct {
	Schema string `json:"schema"`
	// Session names the failing session ("" for sessionless failures such
	// as ingest rejections).
	Session string `json:"session,omitempty"`
	// Reason is the stable rejection token (Reason* constants).
	Reason string `json:"reason"`
	// Detail is the failure error's message.
	Detail string `json:"detail"`
	// Fingerprint identifies the offending payload when one exists
	// (truncated SHA-256, matching the quarantine entry).
	Fingerprint string `json:"fingerprint,omitempty"`
	// VTNS is the virtual time of capture, in nanoseconds.
	VTNS int64 `json:"vt_ns"`
	// Flight is the flight-recorder tail leading up to the failure.
	Flight []obs.FlightEvent `json:"flight,omitempty"`
	// Metrics is a Prometheus text exposition of the registry snapshot at
	// capture (text, not structured: the exposition format is the stable
	// contract every other surface already speaks).
	Metrics string `json:"metrics,omitempty"`
	// Quarantine is the matching quarantine entry, when the failure passed
	// through the ingestion boundary.
	Quarantine *Entry `json:"quarantine,omitempty"`
}

// CaptureBundle assembles a diagnostic bundle from the observability state at
// a failure. Any of flight/metrics/quarantine may be nil/empty — a bundle
// captured from an uninstrumented service still records reason and detail.
func CaptureBundle(session string, err error, vt time.Duration,
	flight []obs.FlightEvent, metrics *obs.Snapshot, q *Entry) *Bundle {
	b := &Bundle{
		Schema:  BundleSchema,
		Session: session,
		Reason:  Reason(err),
		Detail:  err.Error(),
		VTNS:    vt.Nanoseconds(),
		Flight:  flight,
	}
	if q != nil {
		qc := *q
		b.Quarantine = &qc
		b.Fingerprint = q.Fingerprint
	}
	if metrics != nil {
		b.Metrics = metrics.Prometheus()
	}
	return b
}

// Seal signs the bundle's canonical JSON encoding under key.
func (b *Bundle) Seal(key []byte) (*trace.Signed, error) {
	payload, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	return trace.SignBytes(payload, key)
}

// OpenBundle verifies a sealed bundle and decodes its payload. A bad MAC or
// a payload that is not a BundleSchema document fails.
func OpenBundle(payload, mac, key []byte) (*Bundle, error) {
	if len(mac) != 32 {
		return nil, fmt.Errorf("audit: bundle MAC must be 32 bytes, got %d", len(mac))
	}
	s := &trace.Signed{Payload: payload}
	copy(s.MAC[:], mac)
	verified, err := trace.VerifyBytes(s, key)
	if err != nil {
		return nil, fmt.Errorf("audit: bundle seal: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(verified, &b); err != nil {
		return nil, fmt.Errorf("audit: bundle payload: %w", err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("audit: bundle schema %q, want %q", b.Schema, BundleSchema)
	}
	return &b, nil
}

// Render pretty-prints the bundle for terminal output (grtdiag bundle).
func (b *Bundle) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "diagnostic bundle (%s)\n", b.Schema)
	if b.Session != "" {
		fmt.Fprintf(&sb, "  session:     %s\n", b.Session)
	}
	fmt.Fprintf(&sb, "  reason:      %s\n", b.Reason)
	fmt.Fprintf(&sb, "  detail:      %s\n", b.Detail)
	if b.Fingerprint != "" {
		fmt.Fprintf(&sb, "  fingerprint: %s\n", b.Fingerprint)
	}
	fmt.Fprintf(&sb, "  virtual time: %.6f ms\n", float64(b.VTNS)/1e6)
	if b.Quarantine != nil {
		fmt.Fprintf(&sb, "  quarantine:  %s (%d bytes): %s\n",
			b.Quarantine.Reason, b.Quarantine.Bytes, b.Quarantine.Detail)
	}
	if len(b.Flight) > 0 {
		fmt.Fprintf(&sb, "  flight tail (%d events):\n", len(b.Flight))
		for _, e := range b.Flight {
			fmt.Fprintf(&sb, "    %s\n", e)
		}
	}
	if b.Metrics != "" {
		fmt.Fprintf(&sb, "  metrics snapshot: %d lines of Prometheus text\n",
			strings.Count(b.Metrics, "\n"))
	}
	return sb.String()
}

// SealedBundle pairs a bundle with its seal, as retained by a BundleLog.
type SealedBundle struct {
	Bundle *Bundle
	Signed *trace.Signed
}

// DefaultBundleCapacity bounds a BundleLog's retained bundles.
const DefaultBundleCapacity = 32

// BundleLog is a bounded, thread-safe ring of sealed diagnostic bundles,
// newest-biased like the quarantine: when full the oldest is dropped, while
// the total capture count stays monotonic. A nil log retains nothing.
type BundleLog struct{ bundles *ring.Ring[SealedBundle] }

// NewBundleLog creates a log retaining at most capacity bundles
// (DefaultBundleCapacity if <= 0).
func NewBundleLog(capacity int) *BundleLog {
	if capacity <= 0 {
		capacity = DefaultBundleCapacity
	}
	return &BundleLog{ring.New[SealedBundle](capacity, nil)}
}

// journal returns the log's ring, nil for a nil log.
func (l *BundleLog) journal() *ring.Ring[SealedBundle] {
	if l == nil {
		return nil
	}
	return l.bundles
}

// Add retains one sealed bundle. Safe (and a no-op) on a nil log.
func (l *BundleLog) Add(sb SealedBundle) { l.journal().Add(sb) }

// Entries returns the retained bundles, oldest first.
func (l *BundleLog) Entries() []SealedBundle { return l.journal().Entries() }

// Last returns the newest retained bundle, or a zero SealedBundle and false
// when none has been captured.
func (l *BundleLog) Last() (SealedBundle, bool) { return l.journal().Last() }

// Total returns the number of bundles ever captured, including ones since
// evicted from the ring.
func (l *BundleLog) Total() int { return int(l.journal().Total()) }

// EncodeBundleFile writes a sealed bundle in the GRTD file layout: magic +
// uint32-LE length-prefixed (payload, mac, key) chunks. Bundling the key
// follows the demo-CLI convention of recordings and checkpoints; a real
// deployment keeps it in secure storage.
func EncodeBundleFile(w io.Writer, signed *trace.Signed, key []byte) error {
	if _, err := io.WriteString(w, BundleMagic); err != nil {
		return err
	}
	return wire.WriteChunks(w, signed.Payload, signed.MAC[:], key)
}

// maxBundleTrailer bounds what DecodeBundleFile reads past the chunks,
// where only whitespace (say, a text tool's final newline) is allowed.
const maxBundleTrailer = 4 << 10

// DecodeBundleFile reads a GRTD file back into (payload, mac, key) chunks.
// Each chunk is bounded by wire.ReadChunk, so a corrupt length prefix
// cannot force allocation beyond the bytes present, and at most
// maxBundleTrailer bytes are read past the chunks.
func DecodeBundleFile(r io.Reader) (payload, mac, key []byte, err error) {
	magic := make([]byte, len(BundleMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != BundleMagic {
		return nil, nil, nil, fmt.Errorf("audit: not a diagnostic bundle (GRTD) file")
	}
	for _, c := range []*[]byte{&payload, &mac, &key} {
		if *c, err = wire.ReadChunk(r); err != nil {
			return nil, nil, nil, fmt.Errorf("audit: bundle file: %w", err)
		}
	}
	rest, err := io.ReadAll(io.LimitReader(r, maxBundleTrailer+1))
	if err != nil {
		return nil, nil, nil, err
	}
	if len(rest) > maxBundleTrailer {
		return nil, nil, nil, fmt.Errorf("audit: more than %d trailing bytes after bundle chunks", maxBundleTrailer)
	}
	if len(bytes.TrimSpace(rest)) != 0 {
		return nil, nil, nil, fmt.Errorf("audit: %d trailing bytes after bundle chunks", len(rest))
	}
	return payload, mac, key, nil
}
