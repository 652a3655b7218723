// Package gpumem models the CPU/GPU shared physical memory of a mobile SoC
// and the structures GR-T needs on top of it: GPU page tables, typed memory
// regions, and the snapshot/delta/compression machinery behind meta-only
// memory synchronization (§5 of the paper).
//
// Physical memory is sparse: pages are materialized only when written, and
// absent pages read as zero. This directly mirrors the paper's dry-run
// insight — during recording DriverShim fills ML inputs and parameters with
// zeros, so a multi-hundred-MB VGG16 weight buffer occupies no storage here
// while still contributing its true size to synchronization traffic.
package gpumem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// PageSize is the granularity of physical allocation and page-table mapping.
const PageSize = 4096

// PA is a physical address in the shared memory pool.
type PA uint64

// VA is a GPU virtual address.
type VA uint64

// Pool is a sparse physical memory of a fixed capacity. The zero value is
// unusable; create pools with NewPool.
type Pool struct {
	mu    sync.Mutex
	size  uint64
	pages map[uint64][]byte // page index -> contents; absent pages read as zero

	// Dirty tracking: gen is a mutation counter that every Write, ZeroRange
	// and FreePages call bumps, and pageGen records the generation at which
	// each page's content last changed. The property every user relies on —
	// region aliasing in CaptureState, the page-wise capture, delta encode
	// and restore, and the checkpoint fingerprint cache (internal/record) —
	// is: a page whose generation has not moved past G holds the bytes it
	// held at G. Every content change moves it. A write that leaves the bytes
	// as they were (an identical rewrite, zeros over an unmaterialized page)
	// does not, but a sequence that changes a page and changes it back, A→B→A,
	// does.
	gen     uint64
	pageGen map[uint64]uint64

	// first-fit free list of page ranges, kept sorted by start.
	free []pageRange

	// guards are the §5 continuous-validation traps; onViolation is the
	// installed handler.
	guards      []guardRange
	onViolation func(*GuardViolation)
}

type pageRange struct{ start, count uint64 } // in pages

// NewPool creates a pool of the given capacity in bytes, rounded down to a
// whole number of pages. Capacity must be at least one page.
func NewPool(size uint64) *Pool {
	size -= size % PageSize
	if size < PageSize {
		panic(fmt.Sprintf("gpumem: pool size %d smaller than a page", size))
	}
	return &Pool{
		size:    size,
		pages:   make(map[uint64][]byte),
		pageGen: make(map[uint64]uint64),
		free:    []pageRange{{start: 0, count: size / PageSize}},
	}
}

// Gen returns the pool's current mutation generation. A caller that records
// the generation before reading a range can later ask DirtySince whether the
// range may have changed in the meantime.
func (p *Pool) Gen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// DirtySince reports whether any page overlapping [pa, pa+n) may have been
// mutated after generation since. False guarantees the range's content is
// unchanged; true is conservative.
func (p *Pool) DirtySince(pa PA, n uint64, since uint64) bool {
	if n == 0 {
		return false
	}
	p.check(pa, int(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirtySince(uint64(pa), n, since)
}

// dirtySince is DirtySince for n > 0 under p.mu.
func (p *Pool) dirtySince(off, n, since uint64) bool {
	_, dirty := p.firstDirtyPage(off, n, since)
	return dirty
}

// firstDirtyPage returns the first page overlapping [off, off+n), n > 0,
// changed after generation since, under p.mu.
func (p *Pool) firstDirtyPage(off, n, since uint64) (uint64, bool) {
	for page := off / PageSize; page <= (off+n-1)/PageSize; page++ {
		if p.pageGen[page] > since {
			return page, true
		}
	}
	return 0, false
}

// FirstDirtySpan returns the index of the first PageSize span of
// [pa, pa+n), counted from pa, that overlaps a page changed after
// generation since, or the number of spans if none does. By the generation
// invariant every span before it still holds the bytes it held at since.
// One call takes the lock once, however long the range.
func (p *Pool) FirstDirtySpan(pa PA, n uint64, since uint64) int {
	if n == 0 {
		return 0
	}
	p.check(pa, int(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	off := uint64(pa)
	if page, dirty := p.firstDirtyPage(off, n, since); dirty {
		// The span holding the page's first byte in the range.
		return int((max(page*PageSize, off) - off) / PageSize)
	}
	return int((n + PageSize - 1) / PageSize)
}

// readDirty brings buf up to date with [pa, pa+len(buf)), given that it
// holds the range's bytes at generation since: it reads back every
// PageSize span of buf, counted from pa, that overlaps a page changed after
// since, and appends the spans' indices to spans in increasing order. By the
// generation invariant every other span still holds the pool's bytes. Like
// ReadInto, it does not consult guards.
func (p *Pool) readDirty(pa PA, buf []byte, since uint64, spans []int) []int {
	p.check(pa, len(buf))
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, off := 0, 0; off < len(buf); k, off = k+1, off+PageSize {
		span := buf[off:min(off+PageSize, len(buf))]
		at := uint64(pa) + uint64(off)
		if p.dirtySince(at, uint64(len(span)), since) {
			p.readInto(at, span)
			spans = append(spans, k)
		}
	}
	return spans
}

// writeSpans is Write(pa, data) for data that differs from the pool's bytes
// at most in the PageSize spans of data, counted from pa, that spans lists
// and in those overlapping a page changed after generation since: it checks
// the guards over the whole range and bumps the generation as Write does,
// then writes only those spans. Since Write leaves content-identical pages
// untouched, the pool ends in the state Write would leave.
func (p *Pool) writeSpans(pa PA, data []byte, spans []int, since uint64) {
	p.check(pa, len(data))
	p.mu.Lock()
	v := p.checkGuards(pa, len(data), true)
	p.mu.Unlock()
	if v != nil {
		p.trap(v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	span := func(off int) (uint64, []byte) {
		return uint64(pa) + uint64(off), data[off:min(off+PageSize, len(data))]
	}
	for off := 0; off < len(data); off += PageSize {
		if at, d := span(off); p.dirtySince(at, uint64(len(d)), since) {
			p.write(at, d)
		}
	}
	for _, k := range spans {
		p.write(span(k * PageSize))
	}
}

// markDirty records a mutation of page under p.mu.
func (p *Pool) markDirty(page uint64) {
	p.pageGen[page] = p.gen
}

// Size returns the pool capacity in bytes.
func (p *Pool) Size() uint64 { return p.size }

// MaterializedBytes returns how much backing storage is actually allocated —
// the measure of how sparse the pool is.
func (p *Pool) MaterializedBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return uint64(len(p.pages)) * PageSize
}

// AllocPages allocates n contiguous pages first-fit and returns the physical
// address of the first. It returns an error when the pool is exhausted or
// fragmented beyond the request.
func (p *Pool) AllocPages(n uint64) (PA, error) {
	if n == 0 {
		return 0, fmt.Errorf("gpumem: zero-page allocation")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.free {
		if r.count >= n {
			pa := PA(r.start * PageSize)
			if r.count == n {
				p.free = append(p.free[:i], p.free[i+1:]...)
			} else {
				p.free[i] = pageRange{start: r.start + n, count: r.count - n}
			}
			return pa, nil
		}
	}
	return 0, fmt.Errorf("gpumem: out of memory allocating %d pages", n)
}

// Alloc allocates enough pages to hold size bytes.
func (p *Pool) Alloc(size uint64) (PA, error) {
	return p.AllocPages((size + PageSize - 1) / PageSize)
}

// FreePages returns n pages starting at pa to the free list and drops their
// backing storage. Freeing coalesces adjacent ranges. A range that is
// unaligned, runs past the pool, or overlaps pages already free panics
// before any state changes: freeing it would hand pages outside the pool,
// or the same pages twice, to later allocations.
func (p *Pool) FreePages(pa PA, n uint64) {
	if uint64(pa)%PageSize != 0 {
		panic(fmt.Sprintf("gpumem: free of unaligned PA %#x", pa))
	}
	start := uint64(pa) / PageSize
	p.mu.Lock()
	defer p.mu.Unlock()
	if pages := p.size / PageSize; start > pages || n > pages-start {
		panic(fmt.Sprintf("gpumem: free of %d pages at PA %#x beyond pool size %#x", n, pa, p.size))
	}
	idx := sort.Search(len(p.free), func(i int) bool { return p.free[i].start >= start })
	if (idx > 0 && p.free[idx-1].start+p.free[idx-1].count > start) ||
		(idx < len(p.free) && p.free[idx].start < start+n) {
		panic(fmt.Sprintf("gpumem: free of %d pages at PA %#x overlaps free pages", n, pa))
	}
	p.gen++
	for i := uint64(0); i < n; i++ {
		if pg, ok := p.pages[start+i]; ok {
			delete(p.pages, start+i)
			if !allZero(pg) {
				p.markDirty(start + i)
			}
		}
	}
	p.free = append(p.free, pageRange{})
	copy(p.free[idx+1:], p.free[idx:])
	p.free[idx] = pageRange{start: start, count: n}
	// Coalesce around idx.
	merged := p.free[:0]
	for _, r := range p.free {
		if n := len(merged); n > 0 && merged[n-1].start+merged[n-1].count == r.start {
			merged[n-1].count += r.count
		} else {
			merged = append(merged, r)
		}
	}
	p.free = merged
}

func (p *Pool) check(pa PA, n int) {
	if uint64(pa)+uint64(n) > p.size {
		panic(fmt.Sprintf("gpumem: access [%#x,+%d) beyond pool size %#x", pa, n, p.size))
	}
}

// Read copies len(buf) bytes starting at pa into buf. Unmaterialized pages
// read as zero.
func (p *Pool) Read(pa PA, buf []byte) {
	p.check(pa, len(buf))
	p.mu.Lock()
	v := p.checkGuards(pa, len(buf), false)
	p.mu.Unlock()
	if v != nil {
		p.trap(v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readInto(uint64(pa), buf)
}

// Write copies data into the pool starting at pa. Pages are materialized
// lazily: writing all zeros to an unmaterialized page is a no-op, which
// keeps dry-run recordings sparse even when zero-filled snapshots are
// restored wholesale (the §5 zero-fill property).
func (p *Pool) Write(pa PA, data []byte) {
	p.check(pa, len(data))
	p.mu.Lock()
	v := p.checkGuards(pa, len(data), true)
	p.mu.Unlock()
	if v != nil {
		p.trap(v)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	p.write(uint64(pa), data)
}

// write is Write's copy under p.mu, with the generation already bumped.
func (p *Pool) write(off uint64, data []byte) {
	for len(data) > 0 {
		page, in := off/PageSize, off%PageSize
		n := PageSize - in
		if uint64(len(data)) < n {
			n = uint64(len(data))
		}
		pg, ok := p.pages[page]
		if !ok {
			if allZero(data[:n]) {
				// Unmaterialized page stays zero: content unchanged, not dirty.
				data = data[n:]
				off += n
				continue
			}
			pg = make([]byte, PageSize)
			p.pages[page] = pg
		} else if bytes.Equal(pg[in:in+n], data[:n]) {
			// Content-identical write: nothing changed, so the page stays
			// clean. This is what keeps wholesale snapshot restores from
			// invalidating the dirty tracking — restoring an unchanged
			// region is a no-op, not a mutation.
			data = data[n:]
			off += n
			continue
		}
		copy(pg[in:in+n], data[:n])
		p.markDirty(page)
		data = data[n:]
		off += n
	}
}

// zeroPage is a page of zeros that allZero compares against. It is never
// written.
var zeroPage [PageSize]byte

// allZero reports whether b holds only zero bytes, comparing it a page at a
// time against zeroPage at memequal speed.
func allZero(b []byte) bool {
	for len(b) > PageSize {
		if !bytes.Equal(b[:PageSize], zeroPage[:]) {
			return false
		}
		b = b[PageSize:]
	}
	return bytes.Equal(b, zeroPage[:len(b)])
}

// ReadMaterialized copies only materialized pages of [pa, pa+len(buf)) into
// buf, assuming buf is already zeroed (as a fresh allocation is). It is the
// fast path for capturing large, mostly-sparse snapshots.
func (p *Pool) ReadMaterialized(pa PA, buf []byte) {
	p.check(pa, len(buf))
	p.mu.Lock()
	defer p.mu.Unlock()
	off := uint64(pa)
	for len(buf) > 0 {
		page, in := off/PageSize, off%PageSize
		n := PageSize - in
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if pg, ok := p.pages[page]; ok {
			copy(buf[:n], pg[in:in+n])
		}
		buf = buf[n:]
		off += n
	}
}

// ReadInto copies [pa, pa+len(buf)) into buf, explicitly zeroing spans backed
// by unmaterialized pages. Unlike ReadMaterialized it makes no assumption
// about buf's prior contents, so recycled capture buffers are safe. It does
// not consult guards: snapshot capture is the shim's own bookkeeping, not a
// GPU access.
func (p *Pool) ReadInto(pa PA, buf []byte) {
	p.check(pa, len(buf))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readInto(uint64(pa), buf)
}

// readInto is ReadInto under p.mu.
func (p *Pool) readInto(off uint64, buf []byte) {
	for len(buf) > 0 {
		page, in := off/PageSize, off%PageSize
		n := PageSize - in
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if pg, ok := p.pages[page]; ok {
			copy(buf[:n], pg[in:in+n])
		} else {
			zeroFill(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
}

// Read32 reads a little-endian 32-bit word.
func (p *Pool) Read32(pa PA) uint32 {
	var b [4]byte
	p.Read(pa, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian 32-bit word.
func (p *Pool) Write32(pa PA, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.Write(pa, b[:])
}

// Read64 reads a little-endian 64-bit word.
func (p *Pool) Read64(pa PA) uint64 {
	var b [8]byte
	p.Read(pa, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write64 writes a little-endian 64-bit word.
func (p *Pool) Write64(pa PA, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.Write(pa, b[:])
}

// read64s is len(dst) Read64 calls at pa, pa+8, … under one lock, for a
// caller that has checked no guard is armed: it does not trap. A word past
// the pool's end panics as its Read64 would.
func (p *Pool) read64s(pa PA, dst []uint64) {
	if end := uint64(pa) + 8*uint64(len(dst)); end < uint64(pa) || end > p.size {
		for i := range dst {
			p.check(pa+PA(8*i), 8)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	off := uint64(pa)
	if in := off % PageSize; in+8*uint64(len(dst)) <= PageSize {
		// The common case, one table's entries: decode them in place.
		pg, ok := p.pages[off/PageSize]
		if !ok {
			clear(dst)
			return
		}
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(pg[in+8*uint64(i):])
		}
		return
	}
	var b [8]byte
	for i := range dst {
		p.readInto(off+8*uint64(i), b[:])
		dst[i] = binary.LittleEndian.Uint64(b[:])
	}
}

// guarded reports whether any guard is armed.
func (p *Pool) guarded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.guards) > 0
}

// GuardViolation describes a trapped access to a guarded range — the §5
// continuous-validation safety net: after a memory dump is synchronized, the
// dumped ranges are "unmapped" and any spurious access is reported instead
// of silently desynchronizing the two views.
type GuardViolation struct {
	PA    PA
	Write bool
	Label string
}

func (v *GuardViolation) Error() string {
	op := "read"
	if v.Write {
		op = "write"
	}
	return fmt.Sprintf("gpumem: spurious %s at PA %#x inside guarded range %q", op, v.PA, v.Label)
}

type guardRange struct {
	start, end uint64 // bytes, [start, end)
	label      string
}

// Guard arms a trap on [pa, pa+n): until Unguard, any Read or Write
// overlapping the range invokes the violation handler installed with
// OnGuardViolation (or panics if none is installed).
func (p *Pool) Guard(pa PA, n uint64, label string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.guards = append(p.guards, guardRange{start: uint64(pa), end: uint64(pa) + n, label: label})
}

// UnguardAll disarms every guard.
func (p *Pool) UnguardAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.guards = nil
}

// OnGuardViolation installs the trap handler. The handler runs with the pool
// unlocked; returning from it lets the access proceed (report-and-continue,
// as the paper's error reporting does).
func (p *Pool) OnGuardViolation(fn func(*GuardViolation)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onViolation = fn
}

// checkGuards must be called with p.mu held; it returns a violation to
// deliver after unlocking, or nil.
func (p *Pool) checkGuards(pa PA, n int, write bool) *GuardViolation {
	if len(p.guards) == 0 {
		return nil
	}
	start, end := uint64(pa), uint64(pa)+uint64(n)
	for _, g := range p.guards {
		if start < g.end && g.start < end {
			return &GuardViolation{PA: pa, Write: write, Label: g.label}
		}
	}
	return nil
}

func (p *Pool) trap(v *GuardViolation) {
	if v == nil {
		return
	}
	p.mu.Lock()
	fn := p.onViolation
	p.mu.Unlock()
	if fn == nil {
		panic(v.Error())
	}
	fn(v)
}

// RangeMaterialized reports whether any page overlapping [pa, pa+n) has
// backing storage. A false result guarantees the range reads as zero, which
// is the dry-run fast-path test used by the shader interpreter.
func (p *Pool) RangeMaterialized(pa PA, n uint64) bool {
	if n == 0 {
		return false
	}
	p.check(pa, int(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	for page := uint64(pa) / PageSize; page <= (uint64(pa)+n-1)/PageSize; page++ {
		if _, ok := p.pages[page]; ok {
			return true
		}
	}
	return false
}

// ZeroRange drops the backing storage of whole pages within [pa, pa+n) so
// they read as zero again, and explicitly zeroes partial pages at the edges.
func (p *Pool) ZeroRange(pa PA, n uint64) {
	p.check(pa, int(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	off, end := uint64(pa), uint64(pa)+n
	for off < end {
		page, in := off/PageSize, off%PageSize
		step := PageSize - in
		if end-off < step {
			step = end - off
		}
		if in == 0 && step == PageSize {
			if pg, ok := p.pages[page]; ok {
				delete(p.pages, page)
				if !allZero(pg) {
					p.markDirty(page)
				}
			}
		} else if pg, ok := p.pages[page]; ok {
			if !allZero(pg[in : in+step]) {
				zeroFill(pg[in : in+step])
				p.markDirty(page)
			}
		}
		off += step
	}
}
