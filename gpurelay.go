// Package gpurelay is a full-system reproduction of "Safe and Practical GPU
// Computation in TrustZone" (Park & Lin, EuroSys '23) — the GR-T system —
// as a simulation-backed Go library.
//
// GR-T runs GPU compute inside a TrustZone TEE without porting the GPU
// software stack into it. A workload is executed in two phases:
//
//   - Record (once, online): the client's TEE asks a cloud service to dry
//     run the GPU stack; the cloud's driver accesses the client's physical
//     GPU over the network while every CPU/GPU interaction is logged. Three
//     I/O optimizations — register-access deferral, speculation, and
//     polling-loop offload — plus meta-only memory synchronization make
//     this practical over wireless latencies.
//
//   - Replay (repeatedly, offline): the TEE replays the signed recording
//     against the GPU on fresh input, with no GPU stack and no cloud.
//
// The hardware and software environment of the paper (Mali Bifrost GPU,
// kbase driver, ACL runtime, TrustZone, NetEm-shaped networking) is
// reproduced by simulators under internal/; all delays are virtual time, so
// recordings that "take" hundreds of seconds run in milliseconds.
//
// Basic use:
//
//	client := gpurelay.NewClient("phone-1", gpurelay.MaliG71MP8)
//	svc := gpurelay.NewService()
//	rec, stats, err := client.Record(svc, gpurelay.MNIST(), gpurelay.RecordOptions{})
//	sess, err := client.NewReplaySession(rec)
//	err = sess.SetInput(pixels)
//	result, err := sess.Run()
//	probs, err := sess.Output()
package gpurelay

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"gpurelay/internal/audit"
	"gpurelay/internal/castore"
	"gpurelay/internal/cloud"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/replay"
	"gpurelay/internal/shim"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
	"gpurelay/internal/wire"
)

// Sentinel errors. Failures anywhere in the stack — admission control in
// the cloud service, attestation in the client, signature verification in
// the trace layer, SKU binding in the replayer — wrap these, so callers
// distinguish them with errors.Is across layers instead of string-matching.
var (
	// ErrAttestation: the launched VM's measurement did not match the
	// client's expectation for the image and GPU.
	ErrAttestation = grterr.ErrAttestation
	// ErrCapacity: the admission partition's VM pool and queue were both
	// full, and stayed full through the shed retries; retry later. Every
	// such rejection is a *SheddingError, which also wraps ErrShedding.
	ErrCapacity = grterr.ErrCapacity
	// ErrSessionLimit: this client already holds a recording session.
	ErrSessionLimit = grterr.ErrSessionLimit
	// ErrBadRecording: a recording failed signature or format
	// verification.
	ErrBadRecording = grterr.ErrBadRecording
	// ErrSKUMismatch: a recording (or cloud image) is bound to a
	// different GPU SKU than the device at hand.
	ErrSKUMismatch = grterr.ErrSKUMismatch
	// ErrSessionLost: a record session was torn down mid-flight (link
	// liveness timeout or recording-VM death). RecordResumable retries
	// these automatically; a plain Record surfaces them.
	ErrSessionLost = grterr.ErrSessionLost
	// ErrDeviceLost: the GPU itself failed under the session — an
	// uncorrectable ECC fault or an XID-79 bus fall-off. Wraps
	// ErrSessionLost, so RecordResumable's resume machinery fires
	// unchanged; the re-admitted session lands on a *different* VM's GPU
	// (the failed device is never scheduled again) and the stitched
	// recording stays byte-identical. An ECC loss additionally wraps
	// ErrBadRecording: without a resume path the poisoned run fails
	// closed.
	ErrDeviceLost = grterr.ErrDeviceLost
	// ErrCheckpointCorrupt: a resume checkpoint failed authentication,
	// parsing, or resync verification — the lost session cannot be
	// reproduced from it.
	ErrCheckpointCorrupt = grterr.ErrCheckpointCorrupt
	// ErrShedding: the target admission partition had its pool and queue
	// both full, at any shard count. The rejection is a *SheddingError
	// carrying a retry-after hint and also wrapping ErrCapacity; the cache
	// key pins the workload to its shard, so retry this service later
	// rather than failing over.
	ErrShedding = grterr.ErrShedding
)

// SheddingError is the typed rejection a service returns when an admission
// partition sheds load, one-shard services included; errors.As extracts the
// shard and retry-after hint, and errors.Is matches both ErrShedding and
// ErrCapacity.
type SheddingError = cloud.SheddingError

// SKU identifies a mobile GPU hardware model.
type SKU = mali.SKU

// The simulated GPU catalog. MaliG71MP8 is the paper's client GPU
// (Hikey960).
var (
	MaliG71MP8  = mali.G71MP8
	MaliG72MP12 = mali.G72MP12
	MaliG52MP2  = mali.G52MP2
	MaliG76MP10 = mali.G76MP10
)

// Network is a network condition between client and cloud.
type Network = netsim.Condition

// The paper's two evaluated network conditions (§7.2).
var (
	WiFi     = netsim.WiFi
	Cellular = netsim.Cellular
)

// Model is a hardware-neutral ML workload (late-bound, as shipped by real
// frameworks).
type Model = mlfw.Model

// The six evaluation networks of the paper (Table 1).
var (
	MNIST      = mlfw.MNIST
	AlexNet    = mlfw.AlexNet
	MobileNet  = mlfw.MobileNet
	SqueezeNet = mlfw.SqueezeNet
	ResNet12   = mlfw.ResNet12
	VGG16      = mlfw.VGG16
)

// Benchmarks returns all six evaluation models.
func Benchmarks() []*Model { return mlfw.Benchmarks() }

// Variant selects the recorder implementation (§7.2): Naive, OursM, OursMD,
// or OursMDS (all optimizations, the GR-T default).
type Variant = record.Variant

// Recorder variants.
const (
	Naive   = record.Naive
	OursM   = record.OursM
	OursMD  = record.OursMD
	OursMDS = record.OursMDS
)

// RecordStats reports a record run's measurements (recording delay,
// blocking round trips, synchronization traffic, speculation statistics,
// client energy).
type RecordStats = record.Stats

// Scope collects one session's telemetry: a private metrics registry
// (counters, gauges, histograms) plus a span timeline on the session's
// virtual clock, exportable as Chrome trace_event JSON via
// Scope.WriteChromeTrace. A nil *Scope is a true no-op: instrumented
// sessions and uninstrumented ones produce bit-identical recordings and
// delays.
type Scope = obs.Scope

// ScopeOptions tunes a telemetry Scope's span capacity. Scope.AttachFleet
// and Scope.AttachFlight connect it to a fleet registry and flight recorder.
type ScopeOptions = obs.Options

// MetricsSnapshot is a point-in-time copy of a metrics registry, readable
// (Counter, Gauge, CounterTotal) and exportable as Prometheus text
// (WritePrometheus).
type MetricsSnapshot = obs.Snapshot

// MetricsRegistry is a live metrics registry (the type behind
// Service.FleetRegistry and Scope.AttachFleet).
type MetricsRegistry = obs.Registry

// MetricLabel selects one series of a labeled metric when reading a
// MetricsSnapshot, e.g. Counter("grt_net_rtts_total", Label("mode", "blocking")).
type MetricLabel = obs.Label

// Label builds a MetricLabel.
func Label(key, value string) MetricLabel { return obs.L(key, value) }

// NewScope creates a telemetry scope for one session. Pass it via
// RecordOptions.Obs or ReplaySession.Instrument; the session binds its
// virtual clock to the scope when it starts.
func NewScope(id string) *Scope { return obs.NewScope(id, obs.Options{}) }

// NewScopeWith creates a telemetry scope with explicit options.
func NewScopeWith(id string, opts ScopeOptions) *Scope { return obs.NewScope(id, opts) }

// FlightEvent is one structured flight-recorder journal entry: a virtual
// timestamp, the session it belongs to, a stable kind token (admission,
// sync, spec_commit, fault, resync, checkpoint, resume, ingest_reject, …),
// and numeric arguments.
type FlightEvent = obs.FlightEvent

// FlightRecorder is a bounded, thread-safe ring of FlightEvents. A nil
// *FlightRecorder is a true no-op, mirroring Scope's nil semantics.
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder creates a flight recorder retaining at most capacity
// events (0 → 4096).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

// ReadFlight decodes a flight journal from its JSON Lines form.
func ReadFlight(r io.Reader) ([]FlightEvent, error) { return obs.ReadFlightJSONL(r) }

// DiagBundle is a diagnostic bundle: the sealed evidence artifact the
// service captures on failure paths (ingest rejection, checkpoint
// corruption), packaging the flight-recorder tail, a metrics snapshot, and
// the quarantine entry when one exists.
type DiagBundle = audit.Bundle

// SealedDiagBundle pairs a DiagBundle with its HMAC seal.
type SealedDiagBundle = audit.SealedBundle

// EncodeDiagBundle writes a sealed bundle as a GRTD file (the format grtdiag
// bundle reads).
func EncodeDiagBundle(w io.Writer, sb SealedDiagBundle, key []byte) error {
	return audit.EncodeBundleFile(w, sb.Signed, key)
}

// OpenDiagBundleFile reads a GRTD file, verifies its seal, and decodes the
// bundle.
func OpenDiagBundleFile(r io.Reader) (*DiagBundle, error) {
	payload, mac, key, err := audit.DecodeBundleFile(r)
	if err != nil {
		return nil, err
	}
	return audit.OpenBundle(payload, mac, key)
}

// HealthReport is one window's fleet health rollup: a threshold state
// (healthy, degraded, unhealthy), the reasons, and the window's SLO summary.
type HealthReport = cloud.HealthReport

// HealthState is a rollup verdict: healthy, degraded, or unhealthy.
type HealthState = cloud.HealthState

// Health states.
const (
	HealthHealthy   = cloud.Healthy
	HealthDegraded  = cloud.Degraded
	HealthUnhealthy = cloud.Unhealthy
)

// SessionHealth is one session's health row inside a HealthReport.
type SessionHealth = cloud.SessionHealth

// Recording is a signed, replayable capture of one workload on one GPU SKU.
type Recording struct {
	signed *trace.Signed
	key    []byte
	// Workload and ProductID echo the recording header for display.
	Workload  string
	ProductID uint32
}

// Bundle exports the recording's signed payload, authentication tag, and
// session key for storage. A real deployment would keep the key in TEE
// secure storage; the demo CLIs bundle all three in one file.
func (r *Recording) Bundle() (payload, mac, key []byte) {
	return r.signed.Payload, r.signed.MAC[:], r.key
}

// RecordingFromBundle reconstructs a Recording from Bundle output, verifying
// the signature.
func RecordingFromBundle(payload, mac, key []byte) (*Recording, error) {
	if len(mac) != 32 {
		return nil, fmt.Errorf("gpurelay: MAC must be 32 bytes, got %d: %w", len(mac), ErrBadRecording)
	}
	s := &trace.Signed{Payload: payload}
	copy(s.MAC[:], mac)
	rec, err := trace.Verify(s, key)
	if err != nil {
		return nil, err
	}
	return &Recording{
		signed: s, key: append([]byte(nil), key...),
		Workload: rec.Workload, ProductID: rec.ProductID,
	}, nil
}

// Audit re-verifies the recording and checks its structural invariants —
// region-map geometry, event-field discipline, job/IRQ balance, dump
// containment — without touching a GPU. The seal authenticates the
// recorder, not the recording: a key-holding but buggy or compromised
// recorder can seal hostile structure, which is exactly what Audit rejects.
// Replay sessions run the same audit; Audit lets tools (grtreplay -audit)
// and ingestion pipelines reject early with ErrBadRecording.
func (r *Recording) Audit() error {
	rec, err := trace.Verify(r.signed, r.key)
	if err != nil {
		return err
	}
	return rec.Audit()
}

// Client is a simulated mobile device: a GPU of some SKU behind a TrustZone
// controller, with a virtual clock and a device-unique sealing key (as fused
// at manufacture).
type Client struct {
	ID  string
	SKU *SKU

	clock  *timesim.Clock
	sealer *tee.Sealer

	// mu guards seed: concurrent Record calls each need a distinct
	// deterministic seed for their session's GPU nondeterminism.
	mu   sync.Mutex
	seed uint64
}

// nextSeed advances and returns the per-session seed.
func (c *Client) nextSeed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seed += 0x9E3779B97F4A7C15
	return c.seed
}

// currentSeed reads the seed without advancing it.
func (c *Client) currentSeed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seed
}

// NewClient creates a simulated client device.
func NewClient(id string, sku *SKU) *Client {
	if sku == nil {
		panic("gpurelay: nil SKU")
	}
	deviceKey := make([]byte, 32)
	if _, err := rand.Read(deviceKey); err != nil {
		panic(err)
	}
	sealer, err := tee.NewSealer(deviceKey)
	if err != nil {
		panic(err)
	}
	return &Client{ID: id, SKU: sku, clock: timesim.NewClock(), seed: 1, sealer: sealer}
}

// SealRecording encrypts a recording (and its session key) under this
// device's unique key for storage on the untrusted filesystem. Only this
// device can unseal it — the TEE secure-storage pattern for persisting
// recordings across reboots.
func (c *Client) SealRecording(rec *Recording) ([]byte, error) {
	if rec == nil || rec.signed == nil {
		return nil, fmt.Errorf("gpurelay: nil recording")
	}
	var buf bytes.Buffer
	_ = wire.WriteChunks(&buf, rec.signed.Payload, rec.signed.MAC[:], rec.key) // a bytes.Buffer write cannot fail
	return c.sealer.Seal(rec.Workload, buf.Bytes())
}

// UnsealRecording decrypts a sealed blob produced by SealRecording on this
// device. workload must match the label it was sealed under.
func (c *Client) UnsealRecording(workload string, blob []byte) (*Recording, error) {
	buf, err := c.sealer.Unseal(workload, blob)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(buf)
	var chunks [3][]byte
	for i := range chunks {
		if chunks[i], err = wire.ReadChunk(r); err != nil {
			return nil, fmt.Errorf("gpurelay: sealed blob: %w", err)
		}
	}
	return RecordingFromBundle(chunks[0], chunks[1], chunks[2])
}

// Clock exposes the device's virtual clock (useful for measuring flows that
// span record and replay).
func (c *Client) Clock() *timesim.Clock { return c.clock }

// compatible returns the devicetree compatible string for the client's GPU.
func (c *Client) compatible() (string, error) {
	for compat, sku := range mali.Catalog {
		if sku == c.SKU {
			return compat, nil
		}
	}
	return "", fmt.Errorf("gpurelay: SKU %s not in catalog", c.SKU)
}

// Service is the cloud recording service: a bounded pool of single-tenant
// recording VMs behind a FIFO admission queue, plus a store of speculation
// histories shared among sessions recording the same workload on the same
// GPU SKU. It is safe for concurrent use: multiple clients, one session
// each, can record in parallel.
type Service struct {
	image *cloud.Image
	// pool admits every session: ServiceConfig.Shards partitions (one by
	// default) under consistent hashing on the recording cache key.
	pool      *cloud.Pool
	histories *shim.HistoryStore
	// cache is the content-addressed recording store behind the cache-first
	// admission path (RecordCached): sealed recordings keyed by
	// (SKU, stack, workload, input shape), interlocked with the quarantine.
	cache *castore.Store
	// coalescer deduplicates concurrent record attempts per cache key —
	// one leader records, followers share the published entry.
	coalescer *castore.Coalescer
	// cacheSecret derives the deterministic session keys and client seeds
	// cached recordings are sealed with, so every client admitted under one
	// cache key receives byte-identical artifacts.
	cacheSecret []byte
	// fleet aggregates telemetry across every session the service hosts:
	// admission outcomes and (wall-clock) queue waits from the session
	// manager, history-store hit rates, and — for sessions recorded with a
	// Scope — every per-session counter and histogram the scope receives,
	// written through as each record attempt publishes.
	fleet *obs.Registry
	// quarantine retains the recordings IngestRecording rejected, with
	// fingerprints and stable reasons, and feeds the grt_ingest_* metrics.
	quarantine *audit.Quarantine
	// flight journals structured events (admissions, sync phases,
	// speculation commits, faults, resumes, ingest rejections) across every
	// session the service hosts, stamped with each session's virtual time.
	// Nil when disabled; every write is nil-safe and free.
	flight *obs.FlightRecorder
	// bundles retains the sealed diagnostic bundles captured on failure
	// paths; bundleKey seals them (drawn at service construction, the way a
	// real service would hold an evidence-signing key).
	bundles   *audit.BundleLog
	bundleKey []byte
	// health rolls the fleet registry into windowed SLO health reports.
	health *cloud.HealthTracker
}

// ServiceConfig tunes a Service. The zero value gives a pool of 16
// concurrent recording VMs and an admission queue of 64. A service always
// gives a client one session at a time, shares speculation histories at the
// paper's confidence threshold k=3, and judges its health against fixed
// thresholds (see Service.Health).
type ServiceConfig struct {
	// Capacity bounds concurrently live recording VMs (0 → 16).
	Capacity int
	// QueueLimit bounds admissions waiting for a VM slot once the pool
	// is full; past it the partition sheds with a *SheddingError, which
	// the record entry points wait out (0 → 4×Capacity, negative → no
	// queueing).
	QueueLimit int
	// FlightCapacity bounds the service's flight recorder (0 → 4096 events;
	// negative → flight recording and diagnostic-bundle capture disabled).
	// Disabling changes nothing observable about recordings — the flight
	// recorder is strictly a witness.
	FlightCapacity int
	// Shards splits the admission pool into N partitions under consistent
	// hashing on the recording cache key (0 → one partition). Each
	// partition gets its own Capacity/QueueLimit budget and device IDs
	// prefixed with its index ("s0/gpu-00"); a saturated partition rejects
	// with a *SheddingError. A client holds one session at a time across
	// every partition.
	Shards int
	// CacheEntries bounds the recording store's memory tier (0 → 256
	// entries); the tier also holds at most 256 MiB.
	CacheEntries int
	// CacheDir, when non-empty, enables the store's on-disk tier: entries
	// persist there and memory misses fall through to a re-verified load.
	CacheDir string
	// CacheSecret derives the deterministic per-cache-key session keys and
	// client seeds cached recordings are sealed with. Nil draws a random
	// secret at construction (caches are then byte-stable within one
	// service lifetime; fix the secret to make them stable across services).
	CacheSecret []byte
}

// NewService creates a cloud service hosting the default Bifrost GPU-stack
// image, with default capacity and admission limits.
func NewService() *Service {
	return NewServiceWith(ServiceConfig{})
}

// NewServiceWith creates a cloud service with explicit capacity, queueing,
// sharding and cache configuration.
func NewServiceWith(cfg ServiceConfig) *Service {
	img := cloud.DefaultImage()
	fleet := obs.NewRegistry()
	histories := shim.NewHistoryStore()
	histories.Instrument(fleet)
	s := &Service{
		image: img, histories: histories, fleet: fleet,
		quarantine: audit.New(0),
		health:     cloud.NewHealthTracker(),
		coalescer:  castore.NewCoalescer(),
	}
	cache, err := castore.New(castore.Config{MaxEntries: cfg.CacheEntries, Dir: cfg.CacheDir})
	if err != nil {
		// A broken cache directory must not take the record path down:
		// fall back to a memory-only store.
		cache, _ = castore.New(castore.Config{MaxEntries: cfg.CacheEntries})
	}
	cache.SetQuarantine(s.quarantine)
	cache.Instrument(fleet)
	s.cache = cache
	s.cacheSecret = append([]byte(nil), cfg.CacheSecret...)
	if len(s.cacheSecret) == 0 {
		s.cacheSecret = make([]byte, 32)
		if _, err := rand.Read(s.cacheSecret); err != nil {
			panic(err)
		}
	}
	if cfg.FlightCapacity >= 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightCapacity)
		s.bundles = audit.NewBundleLog(0)
		s.bundleKey = make([]byte, 32)
		if _, err := rand.Read(s.bundleKey); err != nil {
			// No entropy means no evidence seal; run without bundles rather
			// than sealing under a predictable key.
			s.bundles, s.bundleKey = nil, nil
		}
	}
	s.pool = cloud.NewPool(img, cloud.PoolConfig{
		Shards: cfg.Shards, Capacity: cfg.Capacity, QueueLimit: cfg.QueueLimit,
		Fleet: fleet, Flight: s.flight,
	})
	return s
}

// NumShards reports the admission partition count (ServiceConfig.Shards,
// at least 1).
func (s *Service) NumShards() int { return s.pool.NumShards() }

// cacheKeyFor derives the cache identity of recording model on this
// service's stack for the client's SKU — the shared derivation that makes
// cache hits (and shard routing) line up across every admission path.
func (s *Service) cacheKeyFor(sku *SKU, model *Model) castore.Key {
	return castore.KeyForModel(sku.Name, s.image.Stack, model)
}

// maxShedRetries bounds how many times a record entry point waits out a
// shedding partition's retry-after hint before surfacing the rejection.
const maxShedRetries = cloud.MaxShedRetries

// DeviceInfo is a point-in-time snapshot of one GPU device's health books:
// state (healthy/degraded/dead), throttle time, ECC counts, fall-offs, and
// sessions migrated off it.
type DeviceInfo = cloud.DeviceInfo

// Devices snapshots the health books of the fleet's GPU inventory, shard
// order first, then attachment order; IDs carry the shard ("s0/gpu-00").
// Devices a health fault degraded or killed stay listed — the fleet's scar
// tissue is the operator's signal.
func (s *Service) Devices() []DeviceInfo { return s.pool.Devices() }

// Metrics returns a snapshot of the service's fleet-wide metrics registry.
func (s *Service) Metrics() *MetricsSnapshot { return s.fleet.Snapshot() }

// FleetRegistry exposes the service's live fleet registry, so callers can
// aggregate their own scopes into it (Scope.AttachFleet) — e.g. a replay
// scope whose counters should land on the same /metrics surface as the
// service's ingest and admission counters.
func (s *Service) FleetRegistry() *MetricsRegistry { return s.fleet }

// WriteMetrics writes the fleet metrics in Prometheus text exposition
// format (what a /metrics endpoint would serve).
func (s *Service) WriteMetrics(w io.Writer) error { return s.fleet.WritePrometheus(w) }

// QuarantineEntry describes one recording rejected by IngestRecording: a
// payload fingerprint (truncated SHA-256), a stable machine-readable reason
// token, and the rejection detail.
type QuarantineEntry = audit.Entry

// IngestRecording is the service's front door for recordings arriving from
// untrusted storage or transit. It runs the full trust-boundary pipeline —
// MAC verification, resource-bounded parse, structural audit — and only
// then admits the recording. Rejected payloads are quarantined (fingerprint
// + reason, retrievable via Quarantined) and counted in the fleet metrics
// (grt_ingest_recordings_total, grt_ingest_rejects_total), so rejection
// pressure is visible on the service's /metrics surface.
func (s *Service) IngestRecording(payload, mac, key []byte) (*Recording, error) {
	rec, err := s.ingest(payload, mac, key)
	if err != nil {
		e := s.quarantine.Add(payload, err)
		s.fleet.Add(obs.MIngestRecordings, 1, obs.L("outcome", "rejected"))
		s.fleet.Add(obs.MIngestRejects, 1, obs.L("reason", e.Reason))
		s.fleet.GaugeSet(obs.MIngestQuarantine, int64(len(s.quarantine.Entries())))
		// Ingestion happens outside any session clock; the rejection lands
		// on the flight timeline at t=0 and seals a diagnostic bundle.
		s.flight.Emit(0, "", obs.FKIngestReject, e.Reason, obs.A("bytes", int64(len(payload))))
		s.captureBundle("", err, 0, &e)
		return nil, err
	}
	s.fleet.Add(obs.MIngestRecordings, 1, obs.L("outcome", "accepted"))
	return rec, nil
}

func (s *Service) ingest(payload, mac, key []byte) (*Recording, error) {
	if len(mac) != 32 {
		return nil, fmt.Errorf("gpurelay: MAC must be 32 bytes, got %d: %w", len(mac), ErrBadRecording)
	}
	signed := &trace.Signed{Payload: payload}
	copy(signed.MAC[:], mac)
	rec, err := trace.Verify(signed, key)
	if err != nil {
		return nil, err
	}
	if err := rec.Audit(); err != nil {
		return nil, fmt.Errorf("gpurelay: %w", err)
	}
	return &Recording{
		signed: signed, key: append([]byte(nil), key...),
		Workload: rec.Workload, ProductID: rec.ProductID,
	}, nil
}

// Quarantined returns the retained rejection entries, oldest first.
func (s *Service) Quarantined() []QuarantineEntry { return s.quarantine.Entries() }

// captureBundle seals a diagnostic bundle from the observability state at a
// failure: the flight-recorder tail, a fleet metrics snapshot, and the
// quarantine entry when the failure crossed the ingestion boundary. A no-op
// when the service runs with flight recording disabled.
func (s *Service) captureBundle(session string, err error, vt time.Duration, q *audit.Entry) {
	if s.bundles == nil {
		return
	}
	b := audit.CaptureBundle(session, err, vt, s.flight.Tail(bundleFlightTail), s.fleet.Snapshot(), q)
	signed, serr := b.Seal(s.bundleKey)
	if serr != nil {
		return
	}
	s.bundles.Add(audit.SealedBundle{Bundle: b, Signed: signed})
	s.flight.Emit(vt, session, obs.FKBundle, b.Reason)
}

// bundleFlightTail is how many trailing flight events a diagnostic bundle
// packages: enough to see the failing session's recent phases without
// shipping the whole journal.
const bundleFlightTail = 64

// FlightEvents returns the service's retained flight-recorder journal,
// oldest first (nil when flight recording is disabled).
func (s *Service) FlightEvents() []FlightEvent { return s.flight.Events() }

// WriteFlight writes the flight journal as JSON Lines — the format grtdiag
// flight reads back.
func (s *Service) WriteFlight(w io.Writer) error { return s.flight.WriteJSONL(w) }

// DiagBundles returns the sealed diagnostic bundles captured so far, oldest
// first.
func (s *Service) DiagBundles() []SealedDiagBundle { return s.bundles.Entries() }

// LastDiagBundle returns the most recent diagnostic bundle, if any was
// captured.
func (s *Service) LastDiagBundle() (SealedDiagBundle, bool) { return s.bundles.Last() }

// BundleKey exposes the service's evidence-sealing key so a sealed bundle
// can be exported with EncodeDiagBundle (the demo-CLI convention; a real
// deployment keeps it in secure storage).
func (s *Service) BundleKey() []byte { return append([]byte(nil), s.bundleKey...) }

// Health rolls the window since the previous Health call into a fleet health
// report and starts a new window. The first call reports since service
// construction. A lost session makes the fleet unhealthy; a resume, a fault,
// an ingest rejection, a shed admission, a failed GPU or a p99 admission
// wait over 2s degrades it.
func (s *Service) Health() *HealthReport { return s.health.Observe(s.fleet.Snapshot()) }

// ActiveVMs reports the number of live recording VMs, summed across shards.
func (s *Service) ActiveVMs() int { return s.pool.ActiveVMs() }

// QueuedSessions reports the number of admissions waiting for a VM slot,
// summed across shards.
func (s *Service) QueuedSessions() int { return s.pool.Queued() }

// CacheStats reports the recording store's memory tier: resident entries,
// resident payload bytes, and the number of distinct cache keys ever
// admitted (the record-amplification denominator).
func (s *Service) CacheStats() (entries int, bytes int64, keys int) {
	return s.cache.Len(), s.cache.Bytes(), s.cache.KeysSeen()
}

// SharedHistory returns the service-owned speculation history that record
// sessions for the given SKU and workload share (created empty on first
// use). RecordOptions.History overrides it per call — the knob the §7.3
// history-ablation experiments use.
func (s *Service) SharedHistory(sku *SKU, model *Model) *SpeculationHistory {
	return s.histories.Get(shim.HistoryKey{SKU: sku.Name, Stack: s.image.Stack, Workload: model.Name})
}

// SpecHistorySnapshot carries validated speculation-commit histories
// between services: the fleet-shared warm start (DESIGN.md §14). Opaque —
// produce one with ExportSpecHistory, consume it with ImportSpecHistory.
type SpecHistorySnapshot struct {
	snap map[shim.HistoryKey]map[string]shim.Outcome
}

// Keys reports how many (SKU, stack, workload) histories the snapshot
// carries.
func (s *SpecHistorySnapshot) Keys() int {
	if s == nil {
		return 0
	}
	return len(s.snap)
}

// ExportSpecHistory snapshots every speculation history this service has
// validated to prediction confidence: only signatures whose recent window
// already satisfies the k-of-k prediction rule are exported, so a peer
// imports exactly the outcomes this fleet member would itself speculate on.
// The snapshot is keyed like the recording cache key (SKU, stack, workload)
// and is safe to hand to ImportSpecHistory on any service running the same
// stack.
func (s *Service) ExportSpecHistory() *SpecHistorySnapshot {
	return &SpecHistorySnapshot{snap: s.histories.Export()}
}

// ImportSpecHistory seeds this service's speculation histories from a
// peer's export, so a cold session's first commits already predict. Only
// signatures absent locally are seeded — locally observed outcomes outrank
// imported ones — which also makes imports from several peers
// order-independent. Returns the number of signatures seeded.
func (s *Service) ImportSpecHistory(sn *SpecHistorySnapshot) int {
	if sn == nil || len(sn.snap) == 0 {
		return 0
	}
	n := s.histories.Import(sn.snap)
	s.flight.Emit(0, "", obs.FKSpecWarm, "import",
		obs.A("keys", int64(len(sn.snap))), obs.A("seeded", int64(n)))
	return n
}

// RecordOptions tunes a record run. The zero value records with all
// optimizations (OursMDS) over WiFi.
type RecordOptions struct {
	Variant Variant
	Network Network
	// History overrides the speculation history for this run (the §7.3
	// ablation experiments thread one explicitly). Nil uses the
	// service's shared store, keyed by (SKU, stack, workload), so
	// concurrent clients recording the same model on the same hardware
	// warm each other up automatically.
	History *SpeculationHistory
	// InjectMispredictionAt arms the §7.3 fault-injection experiment: the
	// nth speculated commit is treated as mispredicted, forcing a
	// detection + rollback cycle. Zero disables (use a positive index).
	InjectMispredictionAt int
	// Obs, when non-nil, collects the session's telemetry: phase spans on
	// the session's virtual clock and the counters behind the paper's
	// tables, which each record attempt publishes from its stats once it
	// ends. Unless the scope already carries a fleet registry, the
	// service's fleet registry is attached so session counters aggregate
	// into the service-wide view as each attempt ends. Nil records without
	// instrumentation — the recording and its stats are bit-identical
	// either way.
	Obs *Scope
}

// SpeculationHistory is the cross-workload commit history (§4.2).
type SpeculationHistory = shim.History

// NewSpeculationHistory creates a history with the paper's confidence
// threshold k=3.
func NewSpeculationHistory() *SpeculationHistory { return shim.NewHistory(shim.PaperK) }

// Record performs the full GR-T online-recording workflow: attest and launch
// a dedicated cloud VM for this client's GPU, dry run the workload on the
// cloud GPU stack against this device's GPU, and download the signed
// recording.
func (c *Client) Record(svc *Service, model *Model, opts RecordOptions) (*Recording, RecordStats, error) {
	return c.RecordContext(context.Background(), svc, model, opts)
}

// RecordContext is Record with admission control and cancellation: when the
// workload's admission partition is saturated the call queues (FIFO) for a
// slot, and a context deadline or cancel aborts the session — whether still
// queued or already mid-recording — releasing its VM and returning an error
// that wraps the context's cause. Past the admission queue the partition
// sheds: its retry-after hint is waited out on the client's clock, up to
// maxShedRetries times, before its *SheddingError (ErrShedding and
// ErrCapacity) surfaces.
func (c *Client) RecordContext(ctx context.Context, svc *Service, model *Model, opts RecordOptions) (*Recording, RecordStats, error) {
	res, key, err := c.recordOnVM(ctx, svc, model, opts)
	if err != nil {
		return nil, RecordStats{}, err
	}
	return &Recording{
		signed: res.Signed, key: key,
		Workload: res.Recording.Workload, ProductID: res.Recording.ProductID,
	}, res.Stats, nil
}

// recordOnVM is the session behind RecordContext and RecordSegmentedContext:
// admit and attest a VM, then record under the VM's session key and the
// client's next seed. The seed is drawn only once admission succeeded, so a
// refused admission shifts no later session's seed.
func (c *Client) recordOnVM(ctx context.Context, svc *Service, model *Model, opts RecordOptions) (*record.Result, []byte, error) {
	kh := svc.cacheKeyFor(c.SKU, model).Hash()
	vm, err := svc.admit(ctx, c, kh, opts.Obs, keyJitter(kh))
	if err != nil {
		return nil, nil, err
	}
	defer svc.pool.Release(vm)
	key := append([]byte(nil), vm.SessionKey...)
	res, err := svc.run(ctx, c, model, opts, record.Config{SessionKey: key, ClientSeed: c.nextSeed()})
	return res, key, err
}

// admit is the one admission path of every record entry point: it launches a
// VM for the client's GPU through the shard of cache key kh, waiting out shed
// hints with jitter drawn from jitterSeed, and attests it. A VM whose
// measurement is not the one the client expects for this image and GPU is
// released and refused with ErrAttestation. The caller releases (or crashes)
// the VM it gets.
func (s *Service) admit(ctx context.Context, c *Client, kh [32]byte, scope *obs.Scope, jitterSeed uint64) (*cloud.VM, error) {
	compat, err := c.compatible()
	if err != nil {
		return nil, err
	}
	want, err := cloud.ExpectedMeasurement(s.image, compat)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	scope.AttachFleet(s.fleet)
	scope.AttachFlight(s.flight)
	vm, err := s.pool.AcquireShedAware(ctx, c.clock, scope, jitterSeed,
		cloud.Request{Key: kh, ClientID: c.ID, GPU: compat, Nonce: nonce})
	if err != nil {
		return nil, fmt.Errorf("gpurelay: launching recording VM: %w", err)
	}
	// Admission and attestation happen before the session's virtual clock
	// exists, so they land on the timeline as instants at t=0.
	scope.Annotate("session.admitted", "session")
	if vm.Measurement != want {
		s.pool.Release(vm)
		return nil, fmt.Errorf("gpurelay: VM measurement mismatch for image %q on %q: %w",
			s.image.Name, compat, ErrAttestation)
	}
	scope.Annotate("session.attested", "session")
	return vm, nil
}

// run records one session on an admitted VM. On success the client's clock
// advances by the recording delay.
func (s *Service) run(ctx context.Context, c *Client, model *Model, opts RecordOptions, cfg record.Config) (*record.Result, error) {
	res, err := record.RunContext(ctx, s.recordConfig(c, model, opts, cfg))
	if err != nil {
		return nil, err
	}
	c.clock.Advance(res.Stats.RecordingDelay)
	return res, nil
}

// recordConfig completes the record configuration of a session. cfg carries
// what differs between entry points (session key and seed, resume and
// checkpoint hooks); recordConfig fills in what they share from opts:
// variant, network (WiFi by default), speculation history (the service's
// shared store by default), misprediction injection (0 disables) and
// telemetry.
func (s *Service) recordConfig(c *Client, model *Model, opts RecordOptions, cfg record.Config) record.Config {
	cfg.Variant, cfg.Model, cfg.SKU, cfg.Obs = opts.Variant, model, c.SKU, opts.Obs
	cfg.Network = opts.Network
	if cfg.Network.Name == "" {
		cfg.Network = WiFi
	}
	cfg.History = opts.History
	if cfg.History == nil {
		cfg.History = s.SharedHistory(c.SKU, model)
	}
	cfg.InjectMispredictionAt = -1
	if opts.InjectMispredictionAt > 0 {
		cfg.InjectMispredictionAt = opts.InjectMispredictionAt
	}
	return cfg
}

// keyJitter seeds a session's shed-retry jitter from its cache key.
func keyJitter(kh [32]byte) uint64 { return binary.LittleEndian.Uint64(kh[:8]) }

// CacheOutcome reports how a cache-first record request was served.
type CacheOutcome string

const (
	// CacheHit: served straight from the recording store — zero VM time,
	// no admission-queue slot consumed.
	CacheHit CacheOutcome = "hit"
	// CacheRecorded: this request led the record for its cache key and
	// published the result.
	CacheRecorded CacheOutcome = "recorded"
	// CacheCoalesced: another request was already recording this cache
	// key; this one waited and shares the published artifact.
	CacheCoalesced CacheOutcome = "coalesced"
)

// RecordCached is the cache-first record workflow of a fleet-scale service:
// derive the cache key (SKU, stack, workload, input shape) *before*
// admission, serve a store hit with zero VM time, and coalesce concurrent
// misses so exactly one session records per key. See RecordCachedContext.
func (c *Client) RecordCached(svc *Service, model *Model, opts RecordOptions) (*Recording, CacheOutcome, RecordStats, error) {
	return c.RecordCachedContext(context.Background(), svc, model, opts)
}

// RecordCachedContext is RecordCached with cancellation. A hit returns
// immediately with zero RecordStats (nothing was recorded — that is the
// point). A miss runs singleflight: the leader admits a VM (through the
// key's shard), records with a cache-derived session key so the artifact is
// client-agnostic, publishes to the store, and every coalesced follower
// receives the same sealed bytes. A follower whose leader's context dies is
// promoted to lead the retry. Recordings this path returns verify and replay
// exactly like RecordContext's, but two clients requesting the same key
// receive byte-identical bundles.
func (c *Client) RecordCachedContext(ctx context.Context, svc *Service, model *Model, opts RecordOptions) (*Recording, CacheOutcome, RecordStats, error) {
	ck := svc.cacheKeyFor(c.SKU, model)
	if e, ok := svc.cache.Get(ck); ok {
		svc.flight.Emit(0, c.ID, obs.FKCacheHit, ck.Workload)
		return recordingFromEntry(e), CacheHit, RecordStats{}, nil
	}
	svc.flight.Emit(0, c.ID, obs.FKCacheMiss, ck.Workload)
	var stats RecordStats
	e, led, err := svc.coalescer.Do(ctx, ck.Hash(), func(ctx context.Context) (*castore.Entry, error) {
		// Leadership won after a race: the previous leader may have just
		// published. Serve the store before spending a VM.
		if e, ok := svc.cache.Get(ck); ok {
			return e, nil
		}
		e, res, err := svc.recordForCache(ctx, c, ck, model, opts)
		if err != nil {
			return nil, err
		}
		stats = res.Stats
		return e, nil
	})
	if err != nil {
		return nil, "", RecordStats{}, err
	}
	if !led {
		svc.fleet.Add(obs.MCacheCoalesced, 1)
		svc.flight.Emit(0, c.ID, obs.FKCacheCoalesce, ck.Workload)
		return recordingFromEntry(e), CacheCoalesced, RecordStats{}, nil
	}
	return recordingFromEntry(e), CacheRecorded, stats, nil
}

// recordForCache runs the leader's record session for one cache key: admit
// (by key, so sharding and coalescing agree), attest, record under the
// cache-derived session key and client seed, publish to the store. A store
// that refuses publication (e.g. the fingerprint got quarantined while the
// session ran) does not fail the request — the fresh recording still serves
// this leader and its followers; it just is not cached.
func (s *Service) recordForCache(ctx context.Context, c *Client, ck castore.Key, model *Model, opts RecordOptions) (*castore.Entry, *record.Result, error) {
	kh := ck.Hash()
	vm, err := s.admit(ctx, c, kh, opts.Obs, keyJitter(kh))
	if err != nil {
		return nil, nil, err
	}
	defer s.pool.Release(vm)
	// The artifact must not depend on who led: record under the
	// cache-derived key and seed, not the VM's attestation key or the
	// client's seed, and inject no misprediction.
	opts.InjectMispredictionAt = 0
	res, err := s.run(ctx, c, model, opts, record.Config{
		SessionKey: s.cacheSessionKey(kh), ClientSeed: s.cacheClientSeed(kh),
	})
	if err != nil {
		return nil, nil, err
	}
	e := &castore.Entry{
		Key:        ck,
		Payload:    res.Signed.Payload,
		MAC:        res.Signed.MAC,
		SessionKey: s.cacheSessionKey(kh),
		ProductID:  res.Recording.ProductID,
	}
	// A refused publication is served, not cached; the store already
	// counted the reject.
	_ = s.cache.Put(e)
	return e, res, nil
}

// cacheSessionKey derives the session key cached recordings for one cache
// key are sealed with: HMAC-SHA256(cacheSecret, "session-key" || keyhash).
func (s *Service) cacheSessionKey(kh [32]byte) []byte {
	m := hmac.New(sha256.New, s.cacheSecret)
	m.Write([]byte("grt-cache-session-key/1"))
	m.Write(kh[:])
	return m.Sum(nil)
}

// cacheClientSeed derives the deterministic client seed for one cache key,
// so the recorded GPU nondeterminism stream is a function of the key alone.
func (s *Service) cacheClientSeed(kh [32]byte) uint64 {
	m := hmac.New(sha256.New, s.cacheSecret)
	m.Write([]byte("grt-cache-client-seed/1"))
	m.Write(kh[:])
	return binary.LittleEndian.Uint64(m.Sum(nil)[:8])
}

// recordingFromEntry wraps a store entry in the client-facing Recording.
func recordingFromEntry(e *castore.Entry) *Recording {
	return &Recording{
		signed: e.Signed(), key: append([]byte(nil), e.SessionKey...),
		Workload: e.Key.Workload, ProductID: e.ProductID,
	}
}

// QuarantineRecording poisons a recording after the fact: its fingerprint
// enters the audit quarantine and every cache entry carrying it is purged
// from both store tiers, so subsequent cache-first requests miss and
// re-record rather than serve the poison. Returns the quarantine entry.
func (s *Service) QuarantineRecording(rec *Recording, cause error) QuarantineEntry {
	e := s.quarantine.Add(rec.signed.Payload, cause)
	s.cache.Purge(e.Fingerprint)
	s.fleet.GaugeSet(obs.MIngestQuarantine, int64(len(s.quarantine.Entries())))
	s.flight.Emit(0, "", obs.FKIngestReject, e.Reason, obs.A("bytes", int64(len(rec.signed.Payload))))
	return e
}

// SegmentedRecording is a set of per-layer recordings of one workload
// (Figure 2 of the paper): the developer-chosen granularity trading
// composability against efficiency. Segments replay back-to-back on one
// device.
type SegmentedRecording struct {
	segs []*trace.Signed
	key  []byte
	// Workload and ProductID echo the recording header.
	Workload  string
	ProductID uint32
}

// Layers returns the number of segments.
func (s *SegmentedRecording) Layers() int { return len(s.segs) }

// RecordSegmented records a workload like Record but splits the recording at
// the model's layer boundaries, producing one independently signed recording
// per layer.
func (c *Client) RecordSegmented(svc *Service, model *Model, opts RecordOptions) (*SegmentedRecording, RecordStats, error) {
	return c.RecordSegmentedContext(context.Background(), svc, model, opts)
}

// RecordSegmentedContext is RecordSegmented with the same admission control
// and cancellation semantics as RecordContext.
func (c *Client) RecordSegmentedContext(ctx context.Context, svc *Service, model *Model, opts RecordOptions) (*SegmentedRecording, RecordStats, error) {
	res, key, err := c.recordOnVM(ctx, svc, model, opts)
	if err != nil {
		return nil, RecordStats{}, err
	}
	signeds, _, err := res.Segments(model.LayerBoundaries())
	if err != nil {
		return nil, RecordStats{}, err
	}
	return &SegmentedRecording{
		segs: signeds, key: key,
		Workload: res.Recording.Workload, ProductID: res.Recording.ProductID,
	}, res.Stats, nil
}

// NewChainedReplaySession verifies every segment and prepares a replayer
// that runs them back-to-back.
func (c *Client) NewChainedReplaySession(rec *SegmentedRecording) (*ReplaySession, error) {
	if rec == nil || len(rec.segs) == 0 {
		return nil, fmt.Errorf("gpurelay: empty segmented recording")
	}
	return c.newReplaySession(context.Background(), 0xC0DEC0DE, rec.key, rec.segs...)
}

// ReplayResult reports one replay run.
type ReplayResult = replay.Result

// ReplaySession replays one recording on the client's GPU, inside its TEE.
type ReplaySession struct {
	client *Client
	rp     *replay.Replayer
	gpu    *mali.GPU
}

// NewReplaySession verifies the recording's signature and SKU binding and
// prepares the TEE-side replayer. The device reserves secure memory sized to
// the recording's footprint (§3.1).
func (c *Client) NewReplaySession(rec *Recording) (*ReplaySession, error) {
	return c.NewReplaySessionContext(context.Background(), rec)
}

// NewReplaySessionContext is NewReplaySession honoring a context: session
// setup (verification and secure-memory reservation) is abandoned if ctx
// ends first. Replay itself runs entirely on-device and needs no network,
// so a prepared session never blocks on anything cancellable.
func (c *Client) NewReplaySessionContext(ctx context.Context, rec *Recording) (*ReplaySession, error) {
	if rec == nil || rec.signed == nil {
		return nil, fmt.Errorf("gpurelay: nil recording")
	}
	return c.newReplaySession(ctx, 0xBADC0FFEE, rec.key, rec.signed)
}

// newReplaySession is the one replay-session constructor: verify and audit
// the segments once (replay.Open), reserve secure memory of the audited pool
// size on a GPU seeded from the client's seed and gpuSeed, and bind.
func (c *Client) newReplaySession(ctx context.Context, gpuSeed uint64, key []byte, segs ...*trace.Signed) (*ReplaySession, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gpurelay: replay session setup: %w", err)
	}
	v, err := replay.Open(key, segs...)
	if err != nil {
		return nil, err
	}
	gpu := mali.New(c.SKU, gpumem.NewPool(v.PoolSize()), c.clock, c.currentSeed()^gpuSeed)
	rp, err := v.Bind(gpu, tee.NewController(gpu), c.clock)
	if err != nil {
		return nil, err
	}
	return &ReplaySession{client: c, rp: rp, gpu: gpu}, nil
}

// Instrument attaches a telemetry scope to the session: replay runs record
// per-kind event counters, verification counts, and restore spans into it,
// and ReplayResult.Obs carries the snapshot. A nil scope (the default)
// leaves replay uninstrumented.
func (s *ReplaySession) Instrument(scope *Scope) { s.rp.Obs = scope }

// SetInput stages fresh inference input.
func (s *ReplaySession) SetInput(data []float32) error { return s.rp.SetInputF32(data) }

// SetWeights stages model parameters for one weight region. Parameters stay
// inside the TEE; they were never sent to the cloud (§7.1 confidentiality).
func (s *ReplaySession) SetWeights(region string, data []float32) error {
	return s.rp.SetWeightsF32(region, data)
}

// WeightRegion describes one parameter region of a recording.
type WeightRegion struct {
	Name  string
	Elems int // float32 element count
}

// WeightRegions lists the recording's parameter regions in allocation order.
func (s *ReplaySession) WeightRegions() []WeightRegion {
	var out []WeightRegion
	for _, r := range s.rp.Recording().RegionsOfKind(gpumem.KindWeights) {
		out = append(out, WeightRegion{Name: r.Name, Elems: int(r.Size / 4)})
	}
	return out
}

// Run replays the recording on the staged input.
func (s *ReplaySession) Run() (ReplayResult, error) { return s.rp.Run() }

// Output reads the inference result.
func (s *ReplaySession) Output() ([]float32, error) { return s.rp.OutputF32() }

// Elapsed returns total virtual time the client has spent.
func (c *Client) Elapsed() time.Duration { return c.clock.Now() }
