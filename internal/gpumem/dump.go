package gpumem

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gpurelay/internal/wire"
)

// Snapshot is the contents of a set of regions at one synchronization point.
// Snapshots are exchanged between DriverShim and GPUShim at job boundaries
// (§5: cloud→client right before the job-start register write, client→cloud
// right after the completion interrupt).
type Snapshot struct {
	Regions []RegionSnapshot

	// base is the committed snapshot CaptureState.Capture captured this one
	// against, until Commit: every page that can differ between the two is
	// in the regions' page lists.
	base *Snapshot
	// image marks a snapshot that Dump.Apply produced, a receiver's image.
	// An image remembers the pool it was last restored into and that pool's
	// generation before the restore; restored is nil until then, and again
	// after a dump that Apply cannot follow page by page.
	image       bool
	restored    *Pool
	restoredGen uint64
}

// RegionSnapshot is one region's captured bytes.
type RegionSnapshot struct {
	Name string
	Kind RegionKind
	VA   VA
	PA   PA
	Data []byte

	// pages lists PageSize spans of Data by index from its start. In a
	// snapshot CaptureState.Capture read page by page, it is the spans read
	// back from the pool, in increasing order and never empty; every other
	// span holds the bytes of the region in the capture base. It is empty
	// for a region read whole or aliased. In an image, it is the spans that
	// the literals of the dumps applied since the last Restore touched.
	pages []int
}

// RawBytes returns the uncompressed size of the snapshot — the traffic a
// synchronization scheme without compression would ship.
func (s *Snapshot) RawBytes() int64 {
	var n int64
	for _, r := range s.Regions {
		n += int64(len(r.Data))
	}
	return n
}

// newSnapshot returns an empty snapshot with room for the regions filter
// accepts.
func newSnapshot(regions []*Region, filter func(*Region) bool) *Snapshot {
	n := 0
	for _, r := range regions {
		if filter == nil || filter(r) {
			n++
		}
	}
	return &Snapshot{Regions: make([]RegionSnapshot, 0, n)}
}

// Capture reads every region accepted by filter out of pool. A nil filter
// captures everything. Regions are captured in the order given, which both
// sides must agree on for delta encoding to line up. Buffers come from the
// internal recycler; a caller done with the snapshot may hand them back with
// Release, and a caller that doesn't simply leaves them to the GC.
func Capture(pool *Pool, regions []*Region, filter func(*Region) bool) *Snapshot {
	s := newSnapshot(regions, filter)
	for _, r := range regions {
		if filter != nil && !filter(r) {
			continue
		}
		s.Regions = append(s.Regions, RegionSnapshot{
			Name: r.Name, Kind: r.Kind, VA: r.VA, PA: r.PA,
			Data: captureRegion(pool, r),
		})
	}
	return s
}

// captureRegion reads one region into a recycled buffer. Fresh buffers are
// already zero, so the sparse fast path (skip unmaterialized pages) applies;
// recycled buffers get their unmaterialized spans zeroed explicitly.
func captureRegion(pool *Pool, r *Region) []byte {
	data, zeroed := getBufZ(int(r.Size))
	if zeroed {
		pool.ReadMaterialized(r.PA, data)
	} else {
		pool.ReadInto(r.PA, data)
	}
	return data
}

// MetastateOnly is a Capture filter selecting only GPU metastate, the core of
// meta-only synchronization.
func MetastateOnly(r *Region) bool { return r.Kind.Metastate() }

// Restore writes the snapshot's regions back into pool at their physical
// addresses. The receiving shim uses this to reconstruct the shared-memory
// view. Restoring an image into the pool it was last restored into writes,
// of each region, only the pages that the dumps applied since touched and
// the pages the pool changed since: by the pool's generation invariant every
// other page already holds the image's bytes. (So an image's bytes may
// change only through Dump.Apply.) Guards are checked over every whole
// region either way, and the pool ends as a write of every region would
// leave it.
func (s *Snapshot) Restore(pool *Pool) {
	gen := pool.Gen()
	for i := range s.Regions {
		r := &s.Regions[i]
		if s.restored == pool {
			pool.writeSpans(r.PA, r.Data, r.pages, s.restoredGen)
		} else {
			pool.Write(r.PA, r.Data)
		}
		if s.image {
			r.pages = r.pages[:0]
		}
	}
	if s.image {
		s.restored, s.restoredGen = pool, gen
	}
}

// Clone deep-copies the snapshot, so a retained baseline is immune to later
// Restore/patch operations.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Regions: make([]RegionSnapshot, len(s.Regions))}
	for i, r := range s.Regions {
		data := getBuf(len(r.Data))
		copy(data, r.Data)
		r.Data, r.pages = data, nil
		c.Regions[i] = r
	}
	return c
}

// Release hands the snapshot's buffers back to the internal recycler and
// clears them. The caller must guarantee no other snapshot aliases the
// buffers — in particular, a snapshot produced by CaptureState may share
// clean-region buffers with its predecessor and successor, so capture chains
// must be retired through CaptureState.Commit and CaptureState.Release,
// never Release.
func (s *Snapshot) Release() {
	for i := range s.Regions {
		if s.Regions[i].Data != nil {
			putBuf(s.Regions[i].Data)
			s.Regions[i].Data = nil
		}
		s.Regions[i].pages = nil
	}
	s.base, s.restored = nil, nil
}

// sameBuffer reports whether two slices share backing storage (same base and
// length), the aliasing test behind clean-region reuse.
func sameBuffer(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// CaptureState tracks the previous snapshot and the pool's mutation
// watermark so successive captures only read what was written in between.
// A clean region's buffer is shared with the previous snapshot — the encoder
// recognizes the aliasing and emits its delta as a zero run without touching
// a byte of it. A written region is read page by page: only the pages
// changed since the watermark come from the pool, and the capture lists them
// (RegionSnapshot.pages) for the delta encoder. Captures and commits
// alternate: Capture, encode, Commit.
type CaptureState struct {
	prev      *Snapshot
	watermark uint64 // pool generation before prev's regions were read
	pending   uint64 // generation watermark for the not-yet-committed capture

	// retired holds, by region index, the buffers of the snapshot before
	// prev that prev does not share. Each holds its region's bytes in that
	// snapshot, which prev's page list for the region turns into prev's:
	// the next capture of a written region builds its buffer there.
	retired [][]byte
	// The backing arrays of prev's page lists and of the next capture's.
	prevPages, nextPages []int
}

// Prev returns the last committed snapshot (nil before the first Commit).
// It is the delta base the encoder should use.
func (cs *CaptureState) Prev() *Snapshot { return cs.prev }

// Watermark returns the pool generation observed just before the committed
// snapshot's regions were read. A range with no writes past this watermark
// (Pool.DirtySince == false) is guaranteed to hold the same bytes the
// snapshot holds — the invariant the checkpoint fingerprint cache relies on.
func (cs *CaptureState) Watermark() uint64 { return cs.watermark }

// Capture is a dirty-aware Capture: regions untouched since the previous
// committed snapshot alias its buffers instead of being re-read, and a
// written region reads from the pool only the pages written since. The
// caller must pass the same pool, regions, and filter on every call; after
// encoding, Commit retires the previous snapshot. The snapshot's page lists
// stay valid until the Commit after next.
func (cs *CaptureState) Capture(pool *Pool, regions []*Region, filter func(*Region) bool) *Snapshot {
	// The watermark is read before any region is, so a write racing the
	// capture is seen either by this read pass or by the next DirtySince.
	cs.pending = pool.Gen()
	s := newSnapshot(regions, filter)
	s.base = cs.prev
	pages := cs.nextPages[:0]
	for _, r := range regions {
		if filter != nil && !filter(r) {
			continue
		}
		rs := RegionSnapshot{Name: r.Name, Kind: r.Kind, VA: r.VA, PA: r.PA}
		switch p := cs.prevRegion(len(s.Regions), r); {
		case p == nil:
			rs.Data = captureRegion(pool, r)
		case !pool.DirtySince(r.PA, r.Size, cs.watermark):
			rs.Data = p.Data
		default:
			rs.Data = cs.rebuild(len(s.Regions), p)
			n := len(pages)
			pages = pool.readDirty(r.PA, rs.Data, cs.watermark, pages)
			rs.pages = pages[n:len(pages):len(pages)]
		}
		s.Regions = append(s.Regions, rs)
	}
	cs.nextPages = pages
	return s
}

// prevRegion returns region i of the committed snapshot if it is a capture
// of r: the same name, kind, addresses and size.
func (cs *CaptureState) prevRegion(i int, r *Region) *RegionSnapshot {
	if cs.prev == nil || i >= len(cs.prev.Regions) {
		return nil
	}
	p := &cs.prev.Regions[i]
	if p.Name != r.Name || p.Kind != r.Kind || p.VA != r.VA || p.PA != r.PA || len(p.Data) != int(r.Size) {
		return nil
	}
	return p
}

// rebuild returns a buffer holding p's bytes, region i of the committed
// snapshot. The buffer retired from region i at the last Commit takes only
// the pages p's list names, copied from p; any other buffer takes all of p.
func (cs *CaptureState) rebuild(i int, p *RegionSnapshot) []byte {
	var buf []byte
	if i < len(cs.retired) {
		buf, cs.retired[i] = cs.retired[i], nil
	}
	if buf != nil && len(p.pages) > 0 {
		for _, k := range p.pages {
			off := k * PageSize
			copy(buf[off:min(off+PageSize, len(buf))], p.Data[off:])
		}
		return buf
	}
	if buf == nil {
		buf = getBuf(len(p.Data))
	}
	copy(buf, p.Data)
	return buf
}

// Commit makes snap the new baseline. Of the previous snapshot's buffers
// that snap does not share, each one a capture of the same region can build
// on is retired for the next capture, and the others are recycled, as are
// the buffers retired at the last Commit that the last capture did not take.
// Call it once snap has been encoded and the previous snapshot is no longer
// needed as a delta base.
func (cs *CaptureState) Commit(snap *Snapshot) {
	for i, b := range cs.retired {
		putBuf(b)
		cs.retired[i] = nil
	}
	cs.retired = cs.retired[:0]
	if cs.prev != nil {
		cs.retired = append(cs.retired, make([][]byte, len(cs.prev.Regions))...)
		for i := range cs.prev.Regions {
			old := &cs.prev.Regions[i]
			old.pages = nil
			if old.Data == nil || i < len(snap.Regions) && sameBuffer(old.Data, snap.Regions[i].Data) {
				continue
			}
			if i < len(snap.Regions) && len(old.Data) == len(snap.Regions[i].Data) {
				cs.retired[i] = old.Data
			} else {
				putBuf(old.Data)
			}
			old.Data = nil
		}
	}
	snap.base = nil
	cs.prev, cs.watermark = snap, cs.pending
	cs.prevPages, cs.nextPages = cs.nextPages, cs.prevPages
}

// Release hands the committed snapshot's buffers and the retired ones back
// to the recycler when the capture chain ends, as at the end of a session.
// The committed snapshot must not be used afterwards; a later Capture reads
// every region afresh.
func (cs *CaptureState) Release() {
	for _, b := range cs.retired {
		putBuf(b)
	}
	if cs.prev != nil {
		cs.prev.Release()
	}
	*cs = CaptureState{}
}

// EncodeOptions controls how a snapshot is serialized for the wire.
type EncodeOptions struct {
	// Delta XORs each region against the previous snapshot before coding,
	// so unchanged bytes become zero. Requires a structurally matching
	// previous snapshot (same regions in the same order).
	Delta bool
	// Compress range-codes the payload. The naive recorder ships raw bytes.
	Compress bool
}

const wireMagic = 0x47524D44 // "GRMD"

// headerLen returns the exact size of the wire header for this snapshot.
func (s *Snapshot) headerLen() int {
	n := 4 + 1 + 4 // magic, flags, region count
	for i := range s.Regions {
		n += 2 + len(s.Regions[i].Name) + 1 + 8 + 8 + 4
	}
	return n
}

// putHeader writes the wire header into out and returns the bytes consumed.
// The layout (and therefore every byte) matches the original bytes.Buffer
// encoder: magic u32, flags u8, region count u32, then per region name len
// u16 + name, kind u8, VA u64, PA u64, data len u32 — all little-endian.
func (s *Snapshot) putHeader(out []byte, flags uint8) int {
	le := binary.LittleEndian
	le.PutUint32(out, wireMagic)
	out[4] = flags
	le.PutUint32(out[5:], uint32(len(s.Regions)))
	off := 9
	for i := range s.Regions {
		r := &s.Regions[i]
		le.PutUint16(out[off:], uint16(len(r.Name)))
		off += 2
		off += copy(out[off:], r.Name)
		out[off] = uint8(r.Kind)
		off++
		le.PutUint64(out[off:], uint64(r.VA))
		off += 8
		le.PutUint64(out[off:], uint64(r.PA))
		off += 8
		le.PutUint32(out[off:], uint32(len(r.Data)))
		off += 4
	}
	return off
}

// Encode serializes the snapshot. prev is the previous snapshot at the last
// synchronization point (nil for the first sync or when opts.Delta is
// false). The returned buffer is what crosses the network; its length is the
// MemSync traffic Table 1 accounts.
//
// The encoder never materializes the concatenated payload: a delta compares
// each region with its base page by page and XORs only the pages that
// differ (against the snapshot's capture base, only the pages its capture
// listed), regions whose buffers alias the delta base (clean regions under
// CaptureState) become logical zero runs outright, and the compressor
// consumes the chunk list in region order — so the wire bytes are identical
// to serially encoding the concatenation.
func (s *Snapshot) Encode(prev *Snapshot, opts EncodeOptions) ([]byte, error) {
	return s.encode(prev, opts, nil)
}

// encode is Encode with the range coding done by c (nil: stateless).
func (s *Snapshot) encode(prev *Snapshot, opts EncodeOptions, c *Codec) ([]byte, error) {
	flags := uint8(0)
	if opts.Delta {
		flags |= 1
	}
	if opts.Compress {
		flags |= 2
	}
	if opts.Delta && prev != nil {
		if len(prev.Regions) != len(s.Regions) {
			return nil, fmt.Errorf("gpumem: delta base has %d regions, snapshot has %d",
				len(prev.Regions), len(s.Regions))
		}
		for i := range s.Regions {
			r, p := &s.Regions[i], &prev.Regions[i]
			if p.Name != r.Name || len(p.Data) != len(r.Data) {
				return nil, fmt.Errorf("gpumem: delta base region %q/%d mismatches %q/%d",
					p.Name, len(p.Data), r.Name, len(r.Data))
			}
		}
	}

	chunks := make([]chunk, 0, len(s.Regions))
	delta := opts.Delta && prev != nil // its data chunks are recycled page buffers
	if delta {
		// Against its capture base, a snapshot's page lists name every page
		// that can differ; against any other base, every page can.
		listed := prev == s.base
		for i := range s.Regions {
			r := &s.Regions[i]
			var pages []int
			if listed {
				pages = r.pages
			}
			chunks = appendDelta(chunks, r.Data, prev.Regions[i].Data, pages)
		}
	} else {
		for i := range s.Regions {
			chunks = append(chunks, dataChunk(s.Regions[i].Data))
		}
	}

	hdrLen := s.headerLen()
	var out []byte
	if opts.Compress {
		body := rangeEncodeChunks(chunks, c)
		out = make([]byte, hdrLen+4+len(body))
		s.putHeader(out, flags)
		binary.LittleEndian.PutUint32(out[hdrLen:], uint32(len(body)))
		copy(out[hdrLen+4:], body)
	} else {
		total := chunksLen(chunks)
		out = make([]byte, hdrLen+4+total)
		s.putHeader(out, flags)
		binary.LittleEndian.PutUint32(out[hdrLen:], uint32(total))
		off := hdrLen + 4
		for _, ch := range chunks {
			if !ch.isZeroRun() { // zero runs: out is freshly zeroed
				copy(out[off:], ch.data)
			}
			off += ch.n
		}
	}
	if delta {
		for i := range chunks {
			putBuf(chunks[i].data)
		}
	}
	return out, nil
}

// appendDelta appends the chunks of cur XOR base, two equal-length buffers.
// A cur that aliases base (a clean region under CaptureState) is one zero
// span, unread. Otherwise the two are compared one PageSize span at a time:
// equal spans extend a zero chunk, and each differing span is XORed into a
// recycled page buffer of its own. With a page list (cur captured page by
// page against base), only the listed spans are compared and every other
// span is zero, unread: the capture left it holding base's bytes. The
// comparison is on content, so a page rewritten to its old bytes costs no
// XOR. The zero-RLE writer merges runs across chunks, so the chunks code to
// the same bytes as one whole-region XOR.
func appendDelta(chunks []chunk, cur, base []byte, pages []int) []chunk {
	if sameBuffer(cur, base) {
		return appendZero(chunks, len(cur))
	}
	if len(pages) == 0 {
		for off := 0; off < len(cur); off += PageSize {
			chunks = appendSpan(chunks, cur, base, off)
		}
		return chunks
	}
	done := 0 // bytes of cur chunked so far
	for _, k := range pages {
		off := k * PageSize
		chunks = appendSpan(appendZero(chunks, off-done), cur, base, off)
		done = min(off+PageSize, len(cur))
	}
	return appendZero(chunks, len(cur)-done)
}

// appendSpan appends the delta of the PageSize span at off of cur and base:
// a zero run where they are equal, else their XOR in a recycled page buffer.
func appendSpan(chunks []chunk, cur, base []byte, off int) []chunk {
	end := min(off+PageSize, len(cur))
	if bytes.Equal(cur[off:end], base[off:end]) {
		return appendZero(chunks, end-off)
	}
	d := getBuf(PageSize)[:end-off]
	xorInto(d, cur[off:end], base[off:end])
	return append(chunks, dataChunk(d))
}

// appendZero appends n zero bytes to a chunk list, extending a trailing zero
// chunk.
func appendZero(chunks []chunk, n int) []chunk {
	if n == 0 {
		return chunks
	}
	if k := len(chunks) - 1; k >= 0 && chunks[k].isZeroRun() {
		chunks[k].n += n
		return chunks
	}
	return append(chunks, zeroChunk(n))
}

// WireRegion describes one region entry of an encoded snapshot's header:
// what Decode would reconstruct, minus the payload. The structural verifier
// uses it to validate a dump against a recording's region map without
// materializing a byte of region data.
type WireRegion struct {
	Name    string
	Kind    RegionKind
	VA      VA
	PA      PA
	DataLen int
}

// snapRegionMinWire is the smallest wire footprint of one header entry: a
// 2-byte name length plus kind, VA, PA, and data length.
const snapRegionMinWire = 2 + 1 + 8 + 8 + 4

// parseWireHeader parses and validates an encoded snapshot's header against
// a decode budget: the region count must fit the remaining input, names are
// capped, and every declared payload length is charged to the dump budget —
// all before a single region buffer exists. Returns the header entries, the
// (still encoded) body, and the flag byte.
func parseWireHeader(data []byte, budget *wire.Budget) ([]WireRegion, []byte, uint8, error) {
	le := binary.LittleEndian
	if len(data) < 9 || le.Uint32(data) != wireMagic {
		return nil, nil, 0, fmt.Errorf("gpumem: bad dump magic")
	}
	flags := data[4]
	nRegions, err := wire.CheckCount("snapshot region", uint64(le.Uint32(data[5:])),
		budget.Limits().MaxRegions, snapRegionMinWire, len(data)-9)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("gpumem: %w", err)
	}
	off := 9
	regs := make([]WireRegion, nRegions)
	for i := range regs {
		if off+2 > len(data) {
			return nil, nil, 0, fmt.Errorf("gpumem: truncated dump header")
		}
		nameLen := int(le.Uint16(data[off:]))
		off += 2
		if off+nameLen+1+8+8+4 > len(data) {
			return nil, nil, 0, fmt.Errorf("gpumem: truncated dump header")
		}
		if err := budget.String("snapshot region name", nameLen); err != nil {
			return nil, nil, 0, fmt.Errorf("gpumem: %w", err)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		kind := data[off]
		off++
		va := le.Uint64(data[off:])
		off += 8
		pa := le.Uint64(data[off:])
		off += 8
		dataLen := int(le.Uint32(data[off:]))
		off += 4
		if err := budget.Dump("snapshot region payload", int64(dataLen)); err != nil {
			return nil, nil, 0, fmt.Errorf("gpumem: %w", err)
		}
		regs[i] = WireRegion{Name: name, Kind: RegionKind(kind), VA: VA(va), PA: PA(pa), DataLen: dataLen}
	}
	if off+4 > len(data) {
		return nil, nil, 0, fmt.Errorf("gpumem: truncated dump header")
	}
	bodyLen := int(le.Uint32(data[off:]))
	off += 4
	if bodyLen < 0 || bodyLen > len(data)-off {
		return nil, nil, 0, fmt.Errorf("gpumem: truncated dump body")
	}
	return regs, data[off : off+bodyLen], flags, nil
}

// WireInfo parses just the header of an encoded snapshot under the default
// decode limits, without allocating any region payload.
func WireInfo(data []byte) ([]WireRegion, error) {
	regs, _, _, err := parseWireHeader(data, wire.DefaultLimits().Budget())
	return regs, err
}

// Dump is an encoded snapshot that has been parsed and validated but not yet
// applied: its header, and its payload as the zero-RLE stream the range
// decoder produced (or, uncompressed, the raw body). Decoding is those two
// steps in a row, ParseDump then Apply. Parsing holds all the range decoding;
// a caller that applies one dump many times — a replayer restoring the same
// recording on every run — parses it once and only applies thereafter.
type Dump struct {
	regions []WireRegion
	delta   bool   // applying needs the snapshot the previous dump produced
	rle     []byte // zero-RLE payload stream; nil when the dump is uncompressed
	raw     []byte // uncompressed payload, aliasing the parsed input
}

// ParseDump parses an encoded snapshot under a decode budget. The header is
// parsed and validated in full — counts against remaining input, payload
// lengths charged to the dump budget, the declared body against the actual
// input — before anything is allocated. A compressed body is then range
// decoded, once, into its zero-RLE stream, whose length is capped at twice
// the charged payload total and which must expand to exactly that total. An
// uncompressed dump aliases data, which must stay unmodified while the Dump
// is in use.
func ParseDump(data []byte, lim wire.DecodeLimits) (*Dump, error) {
	return parseDump(data, lim, newBuf, nil)
}

func newBuf(n int) []byte { return make([]byte, n) }

// parseDump is ParseDump with the range decoding done by c (nil: stateless,
// the RLE stream's buffer taken from alloc).
func parseDump(data []byte, lim wire.DecodeLimits, alloc func(int) []byte, c *Codec) (*Dump, error) {
	hdr, body, flags, err := parseWireHeader(data, lim.Budget())
	if err != nil {
		return nil, err
	}
	d := &Dump{regions: hdr, delta: flags&1 != 0}
	total := 0
	for i := range hdr {
		total += hdr[i].DataLen
	}
	if flags&2 == 0 {
		if len(body) != total {
			return nil, fmt.Errorf("gpumem: dump payload %d bytes, regions need %d", len(body), total)
		}
		d.raw = body
		return d, nil
	}
	if d.rle, err = c.rangeDecode(body, total, alloc); err != nil {
		return nil, err
	}
	return d, nil
}

// checkBase reports whether base has the shape a delta dump applies to.
func (d *Dump) checkBase(base *Snapshot) error {
	if base == nil {
		return fmt.Errorf("gpumem: delta stream requires its base snapshot")
	}
	if len(base.Regions) != len(d.regions) {
		return fmt.Errorf("gpumem: delta stream with mismatched base")
	}
	for i := range d.regions {
		if len(base.Regions[i].Data) != d.regions[i].DataLen {
			return fmt.Errorf("gpumem: delta region %d size mismatch", i)
		}
	}
	return nil
}

// Apply expands the dump and returns the snapshot it describes. It takes
// ownership of base, the snapshot the previous dump in the chain produced
// (nil at the head of a chain). A delta dump needs a base of matching shape
// and patches it in place: its literal spans are XORed into base's buffers
// and its zero runs skipped. A full dump never reads base's contents; it
// reuses the buffers whose sizes fit, recycles the rest, zero-fills and
// writes its literals. On error base is left untouched.
//
// The result is an image (see Restore). A compressed delta that moves no
// region, applied to an image that has been restored, notes the pages its
// literals touch in the regions' page lists; any other dump makes the next
// Restore write the image whole.
func (d *Dump) Apply(base *Snapshot) (*Snapshot, error) {
	s := base
	if d.delta {
		if err := d.checkBase(base); err != nil {
			return nil, err
		}
	} else {
		s = d.reshape(base)
	}
	if !s.image {
		// Page lists the snapshot carries as a capture are not the image's.
		s.image, s.base = true, nil
		for i := range s.Regions {
			s.Regions[i].pages = nil
		}
	}
	track := d.delta && d.rle != nil && s.restored != nil
	for i := range d.regions {
		h, r := &d.regions[i], &s.Regions[i]
		// A region the header moves is written whole where it lands.
		track = track && r.PA == h.PA
		r.Name, r.Kind, r.VA, r.PA = h.Name, h.Kind, h.VA, h.PA
	}
	if !track {
		s.restored = nil
	}
	if d.rle != nil {
		expandRLE(d.rle, s.Regions, d.delta, track)
		return s, nil
	}
	raw := d.raw
	for _, r := range s.Regions {
		if d.delta {
			xorWith(r.Data, raw)
		} else {
			copy(r.Data, raw)
		}
		raw = raw[len(r.Data):]
	}
	return s, nil
}

// reshape gives a full dump its region buffers, keeping base's where the
// sizes match and recycling the others.
func (d *Dump) reshape(base *Snapshot) *Snapshot {
	if base == nil {
		base = &Snapshot{}
	}
	if len(base.Regions) != len(d.regions) {
		base.Release()
		base.Regions = make([]RegionSnapshot, len(d.regions))
	}
	for i := range base.Regions {
		r := &base.Regions[i]
		if n := d.regions[i].DataLen; len(r.Data) != n {
			putBuf(r.Data)
			r.Data = getBuf(n)
		}
	}
	return base
}

// Decode reconstructs a snapshot from wire bytes under the default decode
// limits. prev must be the same previous snapshot the encoder used when the
// stream is delta-encoded; Decode never modifies it.
func Decode(data []byte, prev *Snapshot) (*Snapshot, error) {
	return DecodeLimited(data, prev, wire.DefaultLimits())
}

// DecodeLimited is Decode with a caller-supplied decode budget: ParseDump
// then Apply, with the RLE stream in a recycled buffer and a delta applied to
// a copy of prev. No region buffer is allocated before the whole dump has
// been parsed and validated, so a hostile header can never force an
// allocation the input has not paid for (compressed payloads are bounded by
// the budget, since expansion past wire size is what compression is for).
func DecodeLimited(data []byte, prev *Snapshot, lim wire.DecodeLimits) (*Snapshot, error) {
	d, err := parseDump(data, lim, getBuf, nil)
	if err != nil {
		return nil, err
	}
	defer putBuf(d.rle)
	var base *Snapshot
	if d.delta {
		if err := d.checkBase(prev); err != nil {
			return nil, err
		}
		base = prev.Clone()
	}
	return d.Apply(base)
}

// Codec is one session's dump coder: Snapshot.Encode on the sending side,
// and on each receiving side Receive, which patches that side's image of the
// session's snapshots in place. A Codec keeps a one-entry memo on each side
// of the range coder. A record session's memsync dumps come in echo pairs — a
// job's client→cloud dump is byte-identical to the cloud→client dump that
// started it whenever the GPU wrote no metastate — so a Codec that
// range-codes the same zero-RLE stream, or range-decodes the same body, twice
// in a row does the work once. An entry is reused only when the new input is
// byte-identical to the kept one. Every other step of a dump (delta XOR,
// zero-RLE pre-pass, header parse and budget, base check, apply) runs on
// every call, so a Codec returns exactly the wire bytes, snapshots and errors
// of the stateless calls.
//
// A body the Codec's own encoder just produced is checked behind the caller
// (verify-behind): Receive holds a copy of the encoder's zero-RLE stream to
// the rules the range decoder enforces, starts one goroutine that
// range-decodes the body and compares the result with that stream, byte for
// byte, and applies the copy. Settle waits for the check. Every receive that
// misses the memo settles first, so at most one check is in flight, and a
// failed check fails every later Settle and every later receive of a
// compressed body. Every other body is range-decoded before it is applied.
//
// The zero value is ready to use; a Codec is not safe for concurrent use.
type Codec struct {
	// The last zero-RLE stream range-coded, a recycled buffer the Codec
	// owns, and the body it coded to.
	encRLE, encBody []byte
	// A copy of the last body range-decoded or applied from the encoder's
	// stream, the payload total its header declared, and the validated
	// zero-RLE stream applied for it, a recycled buffer the Codec owns.
	decBody  []byte
	decTotal int
	decRLE   []byte
	// checking is set while a check of the decoder's entry is in flight.
	// runCheck is c.checkBody, bound once so that starting a check
	// allocates nothing; check delivers its outcome, and scratch is the
	// buffer it decodes into. err holds the first check that failed.
	checking bool
	runCheck func()
	check    chan error
	scratch  []byte
	err      error
	// Range-coder runs, checks included, read by tests after Settle.
	codes, decodes int
}

// Encode is s.Encode(prev, opts) through the codec.
func (c *Codec) Encode(s, prev *Snapshot, opts EncodeOptions) ([]byte, error) {
	return s.encode(prev, opts, c)
}

// Receive applies an encoded snapshot, under the default decode limits, to
// img: the snapshot the previous dump to the same receiver produced, nil
// before the first. It returns the snapshot the dump describes, which is img
// patched in place by a delta, or built in img's buffers by a full dump
// (Dump.Apply); the caller keeps it as the image the next dump applies to.
// With a lossless coder the image holds the sender's delta base, so Receive
// returns what Decode(data, base) would, without copying the base. On error
// img is left untouched. A dump the Codec encoded is range-decoded behind
// the caller; Settle returns the outcome.
func (c *Codec) Receive(data []byte, img *Snapshot) (*Snapshot, error) {
	return c.receive(data, img, wire.DefaultLimits())
}

// receive is Receive under a caller-supplied decode budget.
func (c *Codec) receive(data []byte, img *Snapshot, lim wire.DecodeLimits) (*Snapshot, error) {
	d, err := parseDump(data, lim, getBuf, c)
	if err != nil {
		return nil, err
	}
	return d.Apply(img)
}

// rangeCode range-codes a zero-RLE stream held in a recycled buffer, taking
// ownership of the buffer. A nil Codec codes and recycles every stream. A
// Codec keeps the stream and its body until the next stream differs, and
// returns the kept body for a byte-identical one; the body must not be
// modified.
func (c *Codec) rangeCode(rle []byte) []byte {
	if c == nil {
		body := rangeCodeRLE(rle)
		putBuf(rle)
		return body
	}
	if c.encBody != nil && bytes.Equal(rle, c.encRLE) {
		putBuf(rle)
		return c.encBody
	}
	c.codes++
	body := rangeCodeRLE(rle)
	putBuf(c.encRLE)
	c.encRLE, c.encBody = rle, body
	return body
}

// rangeDecode returns the validated zero-RLE stream of a compressed body
// whose header declares total payload bytes, in a buffer from alloc. A nil
// Codec hands the buffer to the caller. A Codec keeps it, with a copy of the
// body, until a decode of a different body or total succeeds, and returns
// the kept stream for the same body and total; the caller must then neither
// modify nor recycle it. For the body its encoder just produced, a Codec
// returns a copy of the encoder's stream and checks the body behind the
// caller (see Codec); a stream that breaks the decoder's rules, which a
// header declaring another total makes, is range-decoded as any other body.
func (c *Codec) rangeDecode(body []byte, total int, alloc func(int) []byte) ([]byte, error) {
	if c == nil {
		return decodeRLE(body, total, alloc)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.decBody != nil && total == c.decTotal && bytes.Equal(body, c.decBody) {
		return c.decRLE, nil
	}
	if err := c.Settle(); err != nil {
		return nil, err
	}
	if c.encBody != nil && bytes.Equal(body, c.encBody) && checkRLE(c.encRLE, total) == nil {
		rle := alloc(len(c.encRLE))
		copy(rle, c.encRLE)
		c.keep(body, total, rle)
		if c.runCheck == nil {
			c.runCheck, c.check = c.checkBody, make(chan error, 1)
		}
		c.checking = true
		go c.runCheck()
		return rle, nil
	}
	c.decodes++
	rle, err := decodeRLE(body, total, alloc)
	if err != nil {
		return nil, err
	}
	c.keep(body, total, rle)
	return rle, nil
}

// keep makes rle, the validated stream of body with its declared total, the
// decoder's entry, and recycles the stream it replaces.
func (c *Codec) keep(body []byte, total int, rle []byte) {
	putBuf(c.decRLE)
	c.decBody = append(c.decBody[:0], body...)
	c.decTotal, c.decRLE = total, rle
}

// Settle waits for the check of the last body Receive applied from the
// encoder's stream, if one is in flight, and returns the first check that
// failed, or nil.
func (c *Codec) Settle() error {
	if c.checking {
		if err := <-c.check; err != nil && c.err == nil {
			c.err = err
		}
		c.checking = false
	}
	return c.err
}

// Release settles the check in flight and hands the buffers the Codec keeps
// — both zero-RLE streams and the check's scratch — back to the recycler,
// leaving the zero value. A session releases its Codec when it ends; a
// failed check it settles here is dropped, as one that mattered has failed
// the session at an earlier Settle.
func (c *Codec) Release() {
	_ = c.Settle()
	putBuf(c.encRLE)
	putBuf(c.decRLE)
	putBuf(c.scratch)
	*c = Codec{}
}

// checkBody is the check in flight: it range-decodes the decoder's entry,
// a body and its declared total, into scratch, compares the result with the
// zero-RLE stream applied for it, and delivers the outcome. Until Settle
// receives it, the Codec reads the entry and leaves scratch and the range
// decoder count to the check.
func (c *Codec) checkBody() {
	c.decodes++
	rle, err := decodeRLE(c.decBody, c.decTotal, func(n int) []byte {
		if cap(c.scratch) < n {
			putBuf(c.scratch)
			c.scratch = getBuf(n)
		}
		return c.scratch[:n]
	})
	switch {
	case err != nil:
		err = fmt.Errorf("gpumem: self-check of an applied dump: %w", err)
	case !bytes.Equal(rle, c.decRLE):
		err = fmt.Errorf("gpumem: self-check of an applied dump: the body decodes to a %d-byte zero-RLE stream "+
			"that differs from the %d-byte stream applied", len(rle), len(c.decRLE))
	}
	c.check <- err
}

// xorInto stores a XOR b into dst, word-wise. All three must have the same
// length.
func xorInto(dst, a, b []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// xorWith XORs b into dst in place, word-wise.
func xorWith(dst, b []byte) {
	xorInto(dst, dst, b)
}
