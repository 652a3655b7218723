package record

import (
	"bytes"
	"fmt"
	"slices"
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
	ctx      *kbase.Context
	rt       *mlfw.Runtime
	// obs marks each dump on the session's timeline and in its flight
	// journal. Capture/encode are instantaneous in virtual time — the
	// traffic's latency is paid on the link — so dumps are annotated as
	// instant events rather than spans.
	obs *obs.Scope

	// codec codes both directions' dumps, so a job's client→cloud encode
	// and self-check decode reuse the range coding of its cloud→client
	// dump whenever the two are byte-identical. It range-decodes a dump it
	// encoded behind the session; checkJob and checkDir name the last dump
	// received, whose bytes a check in flight covers.
	codec    dumpCodec
	checkJob int
	checkDir *direction

	// toClient is the cloud→client way a dump goes before each job, toCloud
	// the client→cloud way after it.
	toClient, toCloud direction

	// regions and fp are the synchronization region list and its structural
	// fingerprint as layout last built them; built is the context's region
	// list they were built from, and ptRegions the page-table
	// pseudo-regions, in PageTable.Pages order.
	regions   []*gpumem.Region
	fp        string
	built     []*gpumem.Region
	ptRegions []*gpumem.Region
}

// direction is one way a dump goes, from the sender's pool to the
// receiver's.
type direction struct {
	// name labels the direction's counters and journal entries; dump names
	// its dumps in errors, a format of the dump's kind and job.
	name, dump string
	from, to   *gpumem.Pool
	// cap is the sender's capture chain, and fp the structural fingerprint
	// of its committed capture: the delta base.
	cap gpumem.CaptureState
	fp  string
	// img is the receiver's image: the snapshot the last dump produced.
	// Each dump is applied to it in place, and it is what the receiver
	// restores. A lossless coder keeps it equal to the delta base
	// (cap.Prev()).
	img *gpumem.Snapshot
	// fpc is the direction's metaFP cache (see snapFPCached). It makes
	// metaFP, which every job boundary's checkpoint pays, cost in proportion
	// to the pages changed since the last call, while computing exactly the
	// value a cold cache (the resume side's) computes from scratch.
	fpc fpCache
	// traffic tallies the dumps sent this way.
	traffic SyncTraffic
}

// newSyncer returns the syncer of a session whose GPU stack runs rt over
// the cloud pool and whose GPU reads the client pool.
func newSyncer(metaOnly bool, rt *mlfw.Runtime, cloud, client *gpumem.Pool, scope *obs.Scope, codec dumpCodec) *syncer {
	return &syncer{
		metaOnly: metaOnly, ctx: rt.Context(), rt: rt, obs: scope, codec: codec,
		toClient: direction{name: "to_client", dump: "%s dump for job %d", from: cloud, to: client},
		toCloud:  direction{name: "to_cloud", dump: "client %s dump after job %d", from: client, to: cloud},
	}
}

// dumpCodec is the gpumem.Codec surface the syncer calls; tests substitute
// one whose self-checks fail.
type dumpCodec interface {
	Encode(s, prev *gpumem.Snapshot, opts gpumem.EncodeOptions) ([]byte, error)
	Receive(data []byte, img *gpumem.Snapshot) (*gpumem.Snapshot, error)
	Settle() error
	Release()
}

// fpCache is one direction's metaFP cache: the structural fingerprint last
// hashed and the FNV-64a state after it (zero before the first), and the
// regions' hashes by region name.
type fpCache struct {
	structure string
	head      fnv64a
	regions   map[string]*regionFP
	// hashed and structHashed count the region bytes and the structural
	// fingerprint bytes run through the FNV byte loop, for tests.
	hashed, structHashed int64
}

// regionFP holds one region's running FNV-64a state at every PageSize span
// boundary of the snapshot bytes it was computed over: at[k] is the state
// after the region's name, its PA and its first k spans, so the last entry
// is the region's hash. mark is that snapshot's capture watermark. A span
// whose pages the pool reports unchanged past mark holds the same bytes in
// every later snapshot of the capture chain, so the states up to the first
// changed span still hold.
type regionFP struct {
	mark uint64
	pa   gpumem.PA
	size int
	at   []uint64
}

// SyncTraffic is one direction's §5 memory synchronization: the dumps sent,
// their bytes on the wire, and their bytes before delta coding and
// compression (the ratio of the two is the §5 win).
type SyncTraffic struct {
	Dumps    int
	Bytes    int64
	RawBytes int64
}

// publish adds the direction's tallies to a session scope's counters, if it
// sent a dump.
func (t SyncTraffic) publish(scope *obs.Scope, dir string) {
	if t.Dumps == 0 {
		return
	}
	scope.Count(obs.MSyncDumps, int64(t.Dumps), obs.L("dir", dir))
	scope.Count(obs.MSyncBytes, t.Bytes, obs.L("dir", dir))
	scope.Count(obs.MSyncRawBytes, t.RawBytes, obs.L("dir", dir))
}

// layout returns the synchronization region list and its structural
// fingerprint: the context's regions (minus the root-only page-table
// placeholder) plus one pseudo-region per live page-table page. It builds
// them once per structural change — a region allocated or freed, or a page
// added to the table — and otherwise returns the last build, so a job's two
// dumps and metaFP share one list and one fingerprint string. That rests on
// kbase never changing a live Region's name, PA or size: the same region
// pointers in the same order give the same list and fingerprint (built
// keeps the pointers alive, so a freed region's address cannot come back as
// a new region's while they are compared). The pseudo-regions are made
// once per page and kept for the session: tables are never freed, so each
// call adds only the pages the table gained.
func (s *syncer) layout() ([]*gpumem.Region, string) {
	grown := false
	for _, pa := range s.ctx.PageTable().PagesSince(len(s.ptRegions)) {
		s.ptRegions = append(s.ptRegions, &gpumem.Region{
			Name: "pt@" + strconv.FormatUint(uint64(pa), 16), Kind: gpumem.KindPageTable,
			PA: pa, Size: gpumem.PageSize,
			Flags: gpumem.DefaultFlags(gpumem.KindPageTable),
		})
		grown = true
	}
	if ctxRegions := s.ctx.Regions(); grown || !slices.Equal(ctxRegions, s.built) {
		s.built = slices.Clone(ctxRegions)
		out := make([]*gpumem.Region, 0, len(ctxRegions)+len(s.ptRegions))
		for _, r := range ctxRegions {
			if r.Kind == gpumem.KindPageTable {
				continue // replaced by the per-page entries
			}
			out = append(out, r)
		}
		s.regions = append(out, s.ptRegions...)
		s.fp = fingerprint(s.regions)
	}
	return s.regions, s.fp
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
// content) so each region's hash can be cached, and each region's hash is
// cached page by page: at a steady-state job boundary only the pages from
// the first one written since the last call are re-hashed, and a page of
// zeros costs one multiply, so a checkpoint at every job costs in
// proportion to change.
func (s *syncer) metaFP() (out, in uint64) {
	return s.toClient.metaFP(), s.toCloud.metaFP()
}

// metaFP is one direction's half of syncer.metaFP.
func (d *direction) metaFP() uint64 {
	return snapFPCached(d.fp, d.cap.Prev(), d.from, d.cap.Watermark(), &d.fpc)
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

// zeroPage is a page of zeros that span compares against. It is never
// written.
var zeroPage [gpumem.PageSize]byte

// fnvPrimePage is fnvPrime64^PageSize: FNV-1a of a zero byte only
// multiplies by the prime, so a page of zeros hashes as one multiply.
var fnvPrimePage = func() fnv64a {
	p := fnv64a(1)
	for range gpumem.PageSize {
		p *= fnvPrime64
	}
	return p
}()

// span hashes b, at most a page long, and returns how many bytes went
// through the byte loop: none for a whole page of zeros.
func (h *fnv64a) span(b []byte) int {
	if bytes.Equal(b, zeroPage[:]) {
		*h *= fnvPrimePage
		return 0
	}
	h.bytes(b)
	return len(b)
}

// snapFPCached combines the structural fingerprint with every snapshot
// region's content hash, the FNV-64a of its name, PA and bytes. It resumes
// each region's hash at the first PageSize span the pool reports changed
// past the cached entry's watermark: by the pool's generation invariant,
// and since a dirty-aware capture reuses the previous snapshot's bytes for
// every page it does not read back, the spans before it hold the bytes
// hashed last time. A clean region reuses its hash; a new region, or one
// that moved or changed size, is hashed from span 0. The structural
// fingerprint is hashed again only when it changed. The computed value is
// independent of the cache state.
func snapFPCached(structure string, snap *gpumem.Snapshot, pool *gpumem.Pool,
	watermark uint64, c *fpCache) uint64 {
	if c.head == 0 || structure != c.structure {
		h := fnv64a(fnvOffset64)
		h.string(structure)
		c.structure, c.head = structure, h
		c.structHashed += int64(len(structure))
	}
	h := c.head
	if snap == nil {
		return uint64(h)
	}
	if c.regions == nil {
		c.regions = make(map[string]*regionFP)
	}
	for i := range snap.Regions {
		r := &snap.Regions[i]
		n := len(r.Data)
		spans := (n + gpumem.PageSize - 1) / gpumem.PageSize
		e := c.regions[r.Name]
		from := 0
		if e != nil && e.pa == r.PA && e.size == n {
			from = pool.FirstDirtySpan(r.PA, uint64(n), e.mark)
		} else {
			if e == nil {
				e = &regionFP{}
				c.regions[r.Name] = e
			}
			rh := fnv64a(fnvOffset64)
			rh.string(r.Name)
			rh.u64(uint64(r.PA))
			e.pa, e.size = r.PA, n
			e.at = slices.Grow(e.at[:0], spans+1)[:spans+1]
			e.at[0] = uint64(rh)
		}
		rh := fnv64a(e.at[from])
		for k := from; k < spans; k++ {
			c.hashed += int64(rh.span(r.Data[k*gpumem.PageSize : min((k+1)*gpumem.PageSize, n)]))
			e.at[k+1] = uint64(rh)
		}
		e.mark = watermark
		h.string(r.Name)
		h.u64(uint64(r.PA))
		h.u64(e.at[spans])
	}
	return uint64(h)
}

// release waits for the codec's self-check in flight and returns the codec's
// buffers, the receivers' images and both capture chains' buffers to the
// buffer recycler at the end of the session, on every exit path. A failed
// check has already failed a session that signs (see settle), and any other
// exit is a failure.
func (s *syncer) release() {
	s.codec.Release()
	for _, d := range []*direction{&s.toClient, &s.toCloud} {
		if d.img != nil {
			d.img.Release()
			d.img = nil
		}
		d.cap.Release()
	}
}

// beforeJob produces the cloud→client dump for job j and applies it to the
// client pool, returning the wire bytes (for traffic accounting and the
// recording log). Naive ships raw dirty memory: everything on the first
// sync (zero-filled program data included), afterwards the job's
// command-stream slice, the job descriptors, and the page tables.
func (s *syncer) beforeJob(j int) ([]byte, error) {
	if !s.metaOnly {
		regions, _ := s.layout()
		if s.toClient.traffic.Dumps > 0 {
			pa, size := s.rt.CmdSlice(j)
			slice := []*gpumem.Region{{
				Name: fmt.Sprintf("cmd-slice-%d", j), Kind: gpumem.KindCommands,
				PA: pa, Size: size,
			}}
			for _, r := range regions {
				if r.Kind == gpumem.KindJobDesc || r.Kind == gpumem.KindPageTable {
					slice = append(slice, r)
				}
			}
			regions = slice
		}
		return s.sendRaw(&s.toClient, regions, j)
	}
	wire, err := s.send(&s.toClient, j)
	if err != nil {
		return nil, err
	}
	// Continuous validation (§5): the dumped metastate, of the layout the
	// dump used, is now the client's to use; until the job completes, any
	// spurious cloud-side access to it is trapped and reported.
	for _, r := range s.regions {
		if r.Kind.Metastate() {
			s.toClient.from.Guard(r.PA, r.Size, r.Name)
		}
	}
	return wire, nil
}

// afterJob produces the client→cloud dump once job j's completion interrupt
// fired, applies it to the cloud pool, and returns the wire bytes. Naive
// ships the job's destination buffer raw, whatever its size.
func (s *syncer) afterJob(j int) ([]byte, error) {
	// The job is done: the client's view flows back, so the cloud-side
	// guards drop before the incoming dump is applied.
	s.toCloud.to.UnguardAll()
	if !s.metaOnly {
		dst := s.rt.Region(s.rt.Model().Kernels[j].Dst)
		return s.sendRaw(&s.toCloud, []*gpumem.Region{dst}, j)
	}
	return s.send(&s.toCloud, j)
}

// send is the meta-only step: it captures the sender's metastate as a delta
// against the last dump sent this way, codes it, applies it to the
// receiver's image, restores that into the receiver's pool, and returns the
// wire bytes. The capture is dirty-aware: regions untouched since the last
// dump share its buffers and cost the encoder nothing.
func (s *syncer) send(d *direction, j int) ([]byte, error) {
	regions, fp := s.layout()
	snap := d.cap.Capture(d.from, regions, gpumem.MetastateOnly)
	prev := d.cap.Prev()
	if fp != d.fp {
		prev = nil // structural change (new allocations): full dump
	}
	wire, err := s.codec.Encode(snap, prev, gpumem.EncodeOptions{Delta: prev != nil, Compress: true})
	if err != nil {
		return nil, fmt.Errorf("record: encoding "+d.dump+": %w", "meta", j, err)
	}
	img, err := s.codec.Receive(wire, d.img)
	if err != nil {
		// A failed check is the last dump's, not this one's.
		if serr := s.settle(); serr != nil {
			return nil, serr
		}
		return nil, d.selfCheckErr(j, err)
	}
	s.checkJob, s.checkDir = j, d
	d.img = img
	img.Restore(d.to)
	d.cap.Commit(snap)
	d.fp = fp
	s.count(d, j, int64(len(wire)), snap.RawBytes())
	return wire, nil
}

// sendRaw is Naive's step: it ships the regions raw and uncompressed from
// the sender's pool to the receiver's, and returns the wire bytes.
func (s *syncer) sendRaw(d *direction, regions []*gpumem.Region, j int) ([]byte, error) {
	snap := gpumem.Capture(d.from, regions, nil)
	wire, err := snap.Encode(nil, gpumem.EncodeOptions{})
	if err != nil {
		return nil, fmt.Errorf("record: encoding "+d.dump+": %w", "naive", j, err)
	}
	snap.Restore(d.to)
	s.count(d, j, int64(len(wire)), snap.RawBytes())
	snap.Release()
	return wire, nil
}

// count tallies one synchronization dump in its direction's traffic and
// marks it on the session's timeline and in its flight journal.
func (s *syncer) count(d *direction, j int, wire, raw int64) {
	d.traffic.Dumps++
	d.traffic.Bytes += wire
	d.traffic.RawBytes += raw
	s.obs.Annotate("sync.dump", "sync",
		obs.A("job", int64(j)), obs.A("wire_bytes", wire), obs.A("raw_bytes", raw))
	s.obs.Emit(obs.FKSync, d.name,
		obs.A("job", int64(j)), obs.A("wire_bytes", wire), obs.A("raw_bytes", raw))
}

// settle waits for the codec's self-check of the last dump received and, if
// a check failed, returns an error that names the dump's job.
func (s *syncer) settle() error {
	if err := s.codec.Settle(); err != nil {
		return s.checkDir.selfCheckErr(s.checkJob, err)
	}
	return nil
}

// selfCheckErr reports a failed self-check decode of job j's dump.
func (d *direction) selfCheckErr(j int, err error) error {
	return fmt.Errorf("record: self-check decode of "+d.dump+": %w", "meta", j, err)
}
