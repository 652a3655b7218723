package record

import (
	"fmt"
	"strconv"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/obs"
)

// syncer implements the §5 memory-synchronization policies.
//
// Naive ships, raw and uncompressed, every region the CPU side has touched
// (on the first sync that is the entire workload footprint, zero-filled
// program data included) before each job, and the job's output buffer after
// each job. OursM/MD/MDS ship only GPU metastate — command streams, shader
// binaries, job descriptors, and page-table pages — as range-coded deltas
// against the previous synchronization point.
type syncer struct {
	metaOnly bool
	cloud    *gpumem.Pool
	client   *gpumem.Pool
	ctx      *kbase.Context
	rt       *mlfw.Runtime
	// obs counts the §5 synchronization traffic (wire vs raw bytes, dump
	// count, per direction). Capture/encode are instantaneous in virtual
	// time — the traffic's latency is paid on the link — so dumps are
	// annotated as instant events rather than spans.
	obs *obs.Scope

	// codec codes both directions' dumps, so a job's client→cloud encode
	// and self-check decode reuse the range coding of its cloud→client
	// dump whenever the two are byte-identical.
	codec gpumem.Codec
	// The receiving sides' images: the snapshot the last dump to the
	// client (toClient) and to the cloud (toCloud) produced. Each dump is
	// applied to its side's image in place, and the image is what the side
	// restores. A lossless coder keeps each image equal to the sender's
	// delta base (capOut.Prev(), capIn.Prev()).
	toClient, toCloud *gpumem.Snapshot

	firstDone bool
	prevOutFP string
	capOut    gpumem.CaptureState
	prevInFP  string
	capIn     gpumem.CaptureState
	bytesOut  int64
	bytesIn   int64

	// Per-region fingerprint caches for metaFP, one per direction. Keyed by
	// region name; an entry is reused only while the pool's page-generation
	// tracking proves the retained snapshot's bytes for that region cannot
	// have changed (see snapFPCached). This makes metaFP, which every job
	// boundary's checkpoint pays, cost proportional to what changed since
	// the last call, while computing exactly the same value a cold cache
	// (e.g. the resume side) computes from scratch.
	outFPC map[string]regionFP
	inFPC  map[string]regionFP
}

// regionFP caches one region's content hash. mark is the capture watermark
// of the snapshot the hash was computed over: if the pool reports no writes
// to the region past mark, every later dirty-aware capture aliased the same
// buffer, so the hash still describes the retained snapshot's bytes.
type regionFP struct {
	h    uint64
	mark uint64
	pa   gpumem.PA
	size int
}

// Label slices for countDump, built once: the dump counters fire twice per
// job on the hot path, and rebuilding the variadic slices dominated their
// cost.
var (
	dirToClient = []obs.Label{obs.L("dir", "to_client")}
	dirToCloud  = []obs.Label{obs.L("dir", "to_cloud")}
)

// countDump records one synchronization dump in the session's telemetry:
// wire bytes (what actually crosses the link), raw bytes (pre-delta,
// pre-compression — their ratio is the §5 win), and an instant event on the
// timeline.
func (s *syncer) countDump(dir []obs.Label, j int, wire, raw int64) {
	s.obs.Count(obs.MSyncDumps, 1, dir...)
	s.obs.Count(obs.MSyncBytes, wire, dir...)
	s.obs.Count(obs.MSyncRawBytes, raw, dir...)
	s.obs.Annotate("sync.dump", "sync",
		obs.A("job", int64(j)), obs.A("wire_bytes", wire), obs.A("raw_bytes", raw))
	s.obs.Emit(obs.FKSync, dir[0].Value,
		obs.A("job", int64(j)), obs.A("wire_bytes", wire), obs.A("raw_bytes", raw))
}

// regions returns the current synchronization region list: the context's
// regions (minus the root-only page-table placeholder) plus one pseudo-region
// per live page-table page.
func (s *syncer) regions() []*gpumem.Region {
	var out []*gpumem.Region
	for _, r := range s.ctx.Regions() {
		if r.Kind == gpumem.KindPageTable {
			continue // replaced by per-page entries below
		}
		out = append(out, r)
	}
	for _, pa := range s.ctx.PageTable().Pages() {
		out = append(out, &gpumem.Region{
			Name: "pt@" + strconv.FormatUint(uint64(pa), 16), Kind: gpumem.KindPageTable,
			PA: pa, Size: gpumem.PageSize,
			Flags: gpumem.DefaultFlags(gpumem.KindPageTable),
		})
	}
	return out
}

// fingerprint is the structural fingerprint of a region list: per region,
// its name, then PA and size in lowercase hex, as "name:pa:size;". A change
// means the delta base no longer lines up; the string also feeds metaFP, so
// its bytes are part of every checkpoint.
func fingerprint(regions []*gpumem.Region) string {
	n := 0
	for _, r := range regions {
		n += len(r.Name) + 3 + 2*16
	}
	fp := make([]byte, 0, n)
	for _, r := range regions {
		fp = append(fp, r.Name...)
		fp = append(fp, ':')
		fp = strconv.AppendUint(fp, uint64(r.PA), 16)
		fp = append(fp, ':')
		fp = strconv.AppendUint(fp, r.Size, 16)
		fp = append(fp, ';')
	}
	return string(fp)
}

// metaFP fingerprints the delta-encoder metastate in both directions: the
// structural fingerprint combined with per-region content hashes of the
// retained previous snapshot. A checkpoint stores both; the resume path
// re-derives the syncer state and refuses to continue past the boundary
// unless the fingerprints match, since a divergent delta base would silently
// corrupt every later dump.
//
// The combination is a hash of per-region hashes (not a hash of concatenated
// content) precisely so each region's hash can be cached: at a steady-state
// job boundary only the regions actually written since the last call are
// re-hashed, so a checkpoint at every job costs in proportion to change.
func (s *syncer) metaFP() (out, in uint64) {
	if s.outFPC == nil {
		s.outFPC = make(map[string]regionFP)
		s.inFPC = make(map[string]regionFP)
	}
	out = snapFPCached(s.prevOutFP, s.capOut.Prev(), s.cloud, s.capOut.Watermark(), s.outFPC)
	in = snapFPCached(s.prevInFP, s.capIn.Prev(), s.client, s.capIn.Watermark(), s.inFPC)
	return out, in
}

// fnv64a is an inline, allocation-free FNV-64a accumulator (hash/fnv's
// digest allocates, and metaFP runs at every checkpointed job boundary).
type fnv64a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h *fnv64a) string(s string) {
	v := uint64(*h)
	for i := 0; i < len(s); i++ {
		v = (v ^ uint64(s[i])) * fnvPrime64
	}
	*h = fnv64a(v)
}

func (h *fnv64a) bytes(b []byte) {
	v := uint64(*h)
	for _, c := range b {
		v = (v ^ uint64(c)) * fnvPrime64
	}
	*h = fnv64a(v)
}

func (h *fnv64a) u64(x uint64) {
	v := uint64(*h)
	for i := 0; i < 8; i++ {
		v = (v ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	*h = fnv64a(v)
}

// snapFPCached combines the structural fingerprint with every snapshot
// region's content hash. cache entries are reused only when
// pool.DirtySince proves no write touched the region past the watermark the
// cached hash was computed under — false from DirtySince guarantees the
// retained snapshot's buffer for the region still holds the hashed bytes
// (dirty-aware captures alias clean buffers). The computed value is
// independent of the cache state.
func snapFPCached(structure string, snap *gpumem.Snapshot, pool *gpumem.Pool,
	watermark uint64, cache map[string]regionFP) uint64 {
	h := fnv64a(fnvOffset64)
	h.string(structure)
	if snap == nil {
		return uint64(h)
	}
	for i := range snap.Regions {
		r := &snap.Regions[i]
		e, ok := cache[r.Name]
		if !ok || e.pa != r.PA || e.size != len(r.Data) ||
			pool.DirtySince(r.PA, uint64(len(r.Data)), e.mark) {
			rh := fnv64a(fnvOffset64)
			rh.string(r.Name)
			rh.u64(uint64(r.PA))
			rh.bytes(r.Data)
			e = regionFP{h: uint64(rh), mark: watermark, pa: r.PA, size: len(r.Data)}
			cache[r.Name] = e
		}
		h.string(r.Name)
		h.u64(uint64(r.PA))
		h.u64(e.h)
	}
	return uint64(h)
}

// release returns the receivers' images and both capture chains' buffers
// to the buffer recycler at the end of the session.
func (s *syncer) release() {
	for _, img := range []*gpumem.Snapshot{s.toClient, s.toCloud} {
		if img != nil {
			img.Release()
		}
	}
	s.toClient, s.toCloud = nil, nil
	s.capOut.Release()
	s.capIn.Release()
}

// beforeJob produces the cloud→client dump for job j and applies it to the
// client pool, returning the wire bytes (for traffic accounting and the
// recording log).
func (s *syncer) beforeJob(j int) ([]byte, error) {
	if s.metaOnly {
		return s.metaDump(j)
	}
	return s.naiveBefore(j)
}

// metaDump captures cloud-side metastate as a delta against the previous
// sync point. The capture is dirty-aware: regions untouched since the last
// sync share the previous snapshot's buffers and cost the encoder nothing.
func (s *syncer) metaDump(j int) ([]byte, error) {
	regions := s.regions()
	fp := fingerprint(regions)
	snap := s.capOut.Capture(s.cloud, regions, gpumem.MetastateOnly)
	prev := s.capOut.Prev()
	if fp != s.prevOutFP {
		prev = nil // structural change (new allocations): full dump
	}
	wire, err := s.codec.Encode(snap, prev, gpumem.EncodeOptions{Delta: prev != nil, Compress: true})
	if err != nil {
		return nil, fmt.Errorf("record: encoding meta dump for job %d: %w", j, err)
	}
	img, err := s.codec.Receive(wire, s.toClient)
	if err != nil {
		return nil, fmt.Errorf("record: self-check decode of meta dump for job %d: %w", j, err)
	}
	s.toClient = img
	img.Restore(s.client)
	s.capOut.Commit(snap)
	s.prevOutFP = fp
	s.bytesOut += int64(len(wire))
	s.countDump(dirToClient, j, int64(len(wire)), snap.RawBytes())
	// Continuous validation (§5): the dumped metastate is now the
	// client's to use; until the job completes, any spurious cloud-side
	// access to it is trapped and reported.
	for _, r := range regions {
		if r.Kind.Metastate() {
			s.cloud.Guard(r.PA, r.Size, r.Name)
		}
	}
	return wire, nil
}

// naiveBefore ships raw dirty memory: everything on the first sync
// (zero-filled program data included), afterwards the job's command-stream
// slice, the job descriptors, and the page tables.
func (s *syncer) naiveBefore(j int) ([]byte, error) {
	var snap *gpumem.Snapshot
	if !s.firstDone {
		s.firstDone = true
		snap = gpumem.Capture(s.cloud, s.regions(), nil)
	} else {
		pa, size := s.rt.CmdSlice(j)
		regions := []*gpumem.Region{{
			Name: fmt.Sprintf("cmd-slice-%d", j), Kind: gpumem.KindCommands,
			PA: pa, Size: size,
		}}
		for _, r := range s.regions() {
			if r.Kind == gpumem.KindJobDesc || r.Kind == gpumem.KindPageTable {
				regions = append(regions, r)
			}
		}
		snap = gpumem.Capture(s.cloud, regions, nil)
	}
	wire, err := snap.Encode(nil, gpumem.EncodeOptions{})
	if err != nil {
		return nil, fmt.Errorf("record: encoding naive dump for job %d: %w", j, err)
	}
	snap.Restore(s.client)
	s.bytesOut += int64(len(wire))
	s.countDump(dirToClient, j, int64(len(wire)), snap.RawBytes())
	snap.Release()
	return wire, nil
}

// afterJob produces the client→cloud dump once job j's completion interrupt
// fired, applies it to the cloud pool, and returns the wire bytes.
func (s *syncer) afterJob(j int) ([]byte, error) {
	// The job is done: the client's view flows back, so the cloud-side
	// guards drop before the incoming dump is applied.
	s.cloud.UnguardAll()
	if s.metaOnly {
		regions := s.regions()
		fp := fingerprint(regions)
		snap := s.capIn.Capture(s.client, regions, gpumem.MetastateOnly)
		prev := s.capIn.Prev()
		if fp != s.prevInFP {
			prev = nil
		}
		wire, err := s.codec.Encode(snap, prev, gpumem.EncodeOptions{Delta: prev != nil, Compress: true})
		if err != nil {
			return nil, fmt.Errorf("record: encoding client meta dump after job %d: %w", j, err)
		}
		img, err := s.codec.Receive(wire, s.toCloud)
		if err != nil {
			return nil, fmt.Errorf("record: self-check decode of client meta dump after job %d: %w", j, err)
		}
		s.toCloud = img
		img.Restore(s.cloud)
		s.capIn.Commit(snap)
		s.prevInFP = fp
		s.bytesIn += int64(len(wire))
		s.countDump(dirToCloud, j, int64(len(wire)), snap.RawBytes())
		return wire, nil
	}
	// Naive: ship the job's destination buffer raw, whatever its size.
	k := &s.rt.Model().Kernels[j]
	dst := s.rt.Region(k.Dst)
	snap := gpumem.Capture(s.client, []*gpumem.Region{dst}, nil)
	wire, err := snap.Encode(nil, gpumem.EncodeOptions{})
	if err != nil {
		return nil, fmt.Errorf("record: encoding naive output dump after job %d: %w", j, err)
	}
	snap.Restore(s.cloud)
	s.bytesIn += int64(len(wire))
	s.countDump(dirToCloud, j, int64(len(wire)), snap.RawBytes())
	snap.Release()
	return wire, nil
}
