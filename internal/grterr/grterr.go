// Package grterr holds the sentinel errors shared across the gpurelay
// layers. The cloud service, the trace verifier, and the replayer all fail
// for reasons a caller must be able to distinguish programmatically —
// admission control wants retry-with-backoff on capacity, attestation and
// verification failures are security events, SKU mismatches need a
// re-record — so each layer wraps the matching sentinel with %w and callers
// test with errors.Is instead of string-matching. The package sits below
// every other internal package and imports nothing, so any layer can use it
// without cycles; the public gpurelay package re-exports the sentinels.
package grterr

import (
	"errors"
	"fmt"
)

var (
	// ErrAttestation marks a VM whose launch measurement did not match
	// what the client expects for the image and GPU (§3.1).
	ErrAttestation = errors.New("attestation failed")
	// ErrCapacity marks an admission rejected because the recording
	// service's VM pool and its admission queue are both full.
	ErrCapacity = errors.New("service at capacity")
	// ErrSessionLimit marks an admission rejected because the client
	// already holds a recording session.
	ErrSessionLimit = errors.New("per-client session limit reached")
	// ErrBadRecording marks a recording that failed signature or format
	// verification (§7.1 replay integrity).
	ErrBadRecording = errors.New("recording failed verification")
	// ErrSKUMismatch marks a recording or image bound to a different GPU
	// SKU than the device at hand (§2.4 early binding).
	ErrSKUMismatch = errors.New("GPU SKU mismatch")
	// ErrSessionLost marks a record session torn down mid-flight — the
	// link stayed dark past its liveness timeout or the recording VM died.
	// The session can be resumed from its last job-boundary checkpoint.
	ErrSessionLost = errors.New("record session lost")
	// ErrCheckpointCorrupt marks a job-boundary checkpoint that failed
	// authentication, parsing, or resync verification — resuming from it
	// would not reproduce the interrupted session.
	ErrCheckpointCorrupt = errors.New("checkpoint failed verification")
	// ErrDeviceLost marks a session whose GPU died under it: an
	// uncorrectable (double-bit) ECC fault poisoned a recorded region, or
	// the device fell off the bus entirely (the Navarch XID-79 shape). It
	// wraps ErrSessionLost — to the resume machinery a dead device is just
	// another dead session, resumable from its last checkpoint — but callers
	// and the cloud device registry distinguish it with errors.Is to drive
	// cross-VM migration: the replacement attempt must not land on the
	// same device again.
	ErrDeviceLost = fmt.Errorf("GPU device lost: %w", ErrSessionLost)
	// ErrShedding marks an admission a service refused because the target
	// shard's pool and queue are both full, at any shard count. It is a
	// per-partition verdict that carries a retry-after hint and also wraps
	// ErrCapacity (see cloud.SheddingError): other shards may be idle, and
	// the client should retry this one after the hinted delay rather than
	// fail over — the cache key pins the workload to its shard.
	ErrShedding = errors.New("shard shedding load")
)
