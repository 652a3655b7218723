package gpumem

import (
	"encoding/binary"
	"fmt"
)

// PTEFlag is a page permission flag in the canonical (format-independent)
// encoding used by callers. Page-table formats map these to SKU-specific bit
// positions — the paper notes that GPU page-table formats vary across SKUs
// and that such variation breaks cross-SKU replay (§2.4).
type PTEFlag uint8

// Canonical permission flags.
const (
	PTERead PTEFlag = 1 << iota
	PTEWrite
	// PTEExec marks pages containing GPU shader code. Mali maps metastate
	// executable (KBASE_REG_GPU_NX absent), which GR-T exploits to locate
	// metastate in the shared memory (§5).
	PTEExec
)

// Format describes one SKU's page-table entry layout. Only the permission
// bit positions vary in this model; address bits and the valid marker are
// shared. Replaying a recording whose page tables were produced with a
// different format yields wrong permissions and faults, reproducing the
// paper's observation.
type Format struct {
	Name     string
	ReadBit  uint // bit position of the read-allow bit
	WriteBit uint
	ExecBit  uint
}

// Standard formats used by the SKU catalog.
var (
	// FormatLPAE is a Bifrost-era LPAE-like layout.
	FormatLPAE = Format{Name: "lpae", ReadBit: 2, WriteBit: 3, ExecBit: 4}
	// FormatAArch64 is a later layout with shuffled permission bits.
	FormatAArch64 = Format{Name: "aarch64", ReadBit: 4, WriteBit: 2, ExecBit: 3}
)

const (
	pteValid   = uint64(1) // bit 0: entry present
	pteTable   = uint64(2) // bit 1: points to next-level table (else page)
	pteAddrLo  = 12
	pteAddrMsk = uint64(0xFFFFFFFFF) << pteAddrLo // bits 12..47
)

func (f Format) encode(pa PA, flags PTEFlag, table bool) uint64 {
	e := pteValid | (uint64(pa) & pteAddrMsk)
	if table {
		e |= pteTable
	}
	if flags&PTERead != 0 {
		e |= 1 << f.ReadBit
	}
	if flags&PTEWrite != 0 {
		e |= 1 << f.WriteBit
	}
	if flags&PTEExec != 0 {
		e |= 1 << f.ExecBit
	}
	return e
}

func (f Format) decode(e uint64) (pa PA, flags PTEFlag, table, valid bool) {
	if e&pteValid == 0 {
		return 0, 0, false, false
	}
	pa = PA(e & pteAddrMsk)
	if e&(1<<f.ReadBit) != 0 {
		flags |= PTERead
	}
	if e&(1<<f.WriteBit) != 0 {
		flags |= PTEWrite
	}
	if e&(1<<f.ExecBit) != 0 {
		flags |= PTEExec
	}
	return pa, flags, e&pteTable != 0, true
}

// PageTable is a 3-level GPU page table stored *inside* the shared memory
// pool, exactly as the real Mali MMU expects: page-table pages are ordinary
// memory, so memory dumps naturally capture address-space snapshots, which is
// how GR-T records dynamic GPU address-space updates (§2.3 "completeness").
//
// The virtual address space is 39-bit: three 9-bit indices plus a 12-bit page
// offset.
type PageTable struct {
	pool   *Pool
	format Format
	root   PA
	pages  []PA // every table page, root first
	// ents is MapRange's buffer for one table's new entries. A table has
	// one writer (pages grows unlocked), so one buffer serves every call.
	ents [ptEntries * 8]byte
}

const (
	vaBits    = 39
	levelBits = 9
	ptEntries = 1 << levelBits
)

// NewPageTable allocates an empty top-level table in pool.
func NewPageTable(pool *Pool, format Format) (*PageTable, error) {
	root, err := pool.AllocPages(1)
	if err != nil {
		return nil, fmt.Errorf("allocating page table root: %w", err)
	}
	return &PageTable{pool: pool, format: format, root: root, pages: []PA{root}}, nil
}

// Pages returns the physical addresses of every page-table page (root and
// intermediate levels). Memory synchronization treats these as metastate:
// shipping them is how GR-T records the GPU address space (§2.3, §5).
func (t *PageTable) Pages() []PA { return t.PagesSince(0) }

// PagesSince returns the page-table pages after the first n, in the order
// Pages lists them (nil when there are none). Tables are never freed, so a
// caller that has seen n pages gets only the ones added since.
func (t *PageTable) PagesSince(n int) []PA {
	return append([]PA(nil), t.pages[n:]...)
}

// Root returns the physical address of the top-level table, which the driver
// programs into the GPU's AS_TRANSTAB register.
func (t *PageTable) Root() PA { return t.root }

// Format returns the entry layout this table was built with.
func (t *PageTable) Format() Format { return t.format }

func levelIndex(va VA, level int) uint64 {
	shift := uint(12 + levelBits*(2-level))
	return (uint64(va) >> shift) & (ptEntries - 1)
}

func checkVA(va VA) {
	if uint64(va)>>vaBits != 0 {
		panic(fmt.Sprintf("gpumem: VA %#x exceeds %d-bit space", va, vaBits))
	}
	if uint64(va)%PageSize != 0 {
		panic(fmt.Sprintf("gpumem: unaligned VA %#x", va))
	}
}

// Map installs a translation for one page at va to pa with flags, allocating
// intermediate tables as needed.
func (t *PageTable) Map(va VA, pa PA, flags PTEFlag) error {
	checkVA(va)
	table, _, err := t.lastLevel(va)
	if err != nil {
		return err
	}
	t.pool.Write64(table+PA(levelIndex(va, 2)*8), t.format.encode(pa, flags, false))
	return nil
}

// lastLevel walks the L1 and L2 entries for va and returns the last-level
// table they lead to and the L2 table on the way, allocating a missing table
// (and appending it to the table's pages) as it goes.
func (t *PageTable) lastLevel(va VA) (table, parent PA, err error) {
	table = t.root
	for level := 0; level < 2; level++ {
		slot := table + PA(levelIndex(va, level)*8)
		next, _, isTable, valid := t.format.decode(t.pool.Read64(slot))
		if !valid {
			next, err = t.pool.AllocPages(1)
			if err != nil {
				return 0, 0, fmt.Errorf("allocating L%d table: %w", level+1, err)
			}
			t.pages = append(t.pages, next)
			t.pool.Write64(slot, t.format.encode(next, 0, true))
		} else if !isTable {
			return 0, 0, fmt.Errorf("gpumem: L%d entry for VA %#x is a page, not a table", level, va)
		}
		parent, table = table, next
	}
	return table, parent, nil
}

// MapRange maps n contiguous bytes from va to pa, one last-level table at a
// time: it walks (and allocates) the L1 and L2 entries once per table, in
// the order Map page by page would, and writes the table's new entries with
// one Pool.Write. The pool ends with the bytes, the table pages, and the
// pages changed since any generation that Map page by page leaves. While a
// guard is armed, or where a last-level table is also a table on its own
// path (so that its new entries change the walk), it maps page by page.
func (t *PageTable) MapRange(va VA, pa PA, n uint64, flags PTEFlag) error {
	for off := uint64(0); off < n; {
		at := va + VA(off)
		count := min(ptEntries-levelIndex(at, 2), pagesIn(n-off))
		var table PA
		batch := !t.pool.guarded()
		if batch {
			checkVA(at)
			var parent PA
			var err error
			if table, parent, err = t.lastLevel(at); err != nil {
				return err
			}
			batch = table != t.root && table != parent
		}
		if !batch {
			for i := uint64(0); i < count; i++ {
				if err := t.Map(at+VA(i*PageSize), pa+PA(off+i*PageSize), flags); err != nil {
					return err
				}
			}
		} else {
			for i := uint64(0); i < count; i++ {
				binary.LittleEndian.PutUint64(t.ents[8*i:], t.format.encode(pa+PA(off+i*PageSize), flags, false))
			}
			slot := table + PA(levelIndex(at, 2)*8)
			t.pool.check(slot, 8) // past the pool's end, fail as the first Write64 would
			t.pool.Write(slot, t.ents[:8*count])
		}
		off += count * PageSize
	}
	return nil
}

// Unmap removes the translation for the page at va. Unmapping an absent page
// is a no-op. GR-T's continuous-validation safety net (§5) unmaps regions so
// spurious accesses trap.
func (t *PageTable) Unmap(va VA) {
	checkVA(va)
	table := t.root
	for level := 0; level < 2; level++ {
		slot := table + PA(levelIndex(va, level)*8)
		next, _, isTable, valid := t.format.decode(t.pool.Read64(slot))
		if !valid || !isTable {
			return
		}
		table = next
	}
	t.pool.Write64(table+PA(levelIndex(va, 2)*8), 0)
}

// UnmapRange unmaps n contiguous bytes starting at va.
func (t *PageTable) UnmapRange(va VA, n uint64) {
	for off := uint64(0); off < n; off += PageSize {
		t.Unmap(va + VA(off))
	}
}

// pagesIn returns how many pages n bytes from a page boundary touch.
func pagesIn(n uint64) uint64 { return n/PageSize + min(n%PageSize, 1) }

// Walker resolves GPU virtual addresses against a table rooted at an
// arbitrary PA — this is the MMU's view: it only knows the root register
// value and the format baked into the hardware.
type Walker struct {
	Pool   *Pool
	Format Format
	Root   PA
}

// Translate walks the table for va and returns the physical address and
// flags. ok is false on any fault (unmapped, bad level).
func (w Walker) Translate(va VA) (pa PA, flags PTEFlag, ok bool) {
	if uint64(va)>>vaBits != 0 {
		return 0, 0, false
	}
	e, ok := w.entry(va)
	if !ok {
		return 0, 0, false
	}
	base, flags, isTable, valid := w.Format.decode(e)
	if !valid || isTable {
		return 0, 0, false
	}
	return base + PA(uint64(va)%PageSize), flags, true
}

// entry reads va's last-level entry one Read64 per level, so each read of a
// guarded table traps. ok is false when an L1 or L2 entry is not a table.
func (w Walker) entry(va VA) (e uint64, ok bool) {
	table := w.Root
	for level := 0; level < 2; level++ {
		slot := table + PA(levelIndex(va, level)*8)
		next, _, isTable, valid := w.Format.decode(w.Pool.Read64(slot))
		if !valid || !isTable {
			return 0, false
		}
		table = next
	}
	return w.Pool.Read64(table + PA(levelIndex(va, 2)*8)), true
}

// PageFault is the page where a range walk stopped: one that does not
// translate, or that translates without the permissions the walk needs.
type PageFault struct {
	// VA is the range's first address inside the page.
	VA VA
	// Mapped is true when the page translates but lacks permissions, which
	// Flags then holds.
	Mapped bool
	Flags  PTEFlag
}

func (f *PageFault) Error() string {
	if !f.Mapped {
		return fmt.Sprintf("gpumem: translation fault at VA %#x", f.VA)
	}
	return fmt.Sprintf("gpumem: permission fault at VA %#x (flags %v)", f.VA, f.Flags)
}

// Walk hands fn the VA range [va, va+n) as runs, in order, and stops at the
// first page that does not translate with need, returning its *PageFault,
// or at fn's first error, which it returns. fn gets a run's first PA, its
// offset in the range, and its length; off counts from va. fn is called for
// every page before the fault, so a walk covers what Translate page by page
// would.
//
// Per last-level table, Walk reads the L1 and L2 entries once and the
// table's entries for the range with one locked read. A run is the longest
// stretch of the range's pages in one table that is physically contiguous
// and inside the pool; a page past the pool's end is a run of its own, so fn
// fails on it as on that page alone.
//
// fn may write the pool, but only inside the run it is handed. A run ends at
// a page that holds entries the walk has read, and the walk reads the tables
// again after it, so a store through the walk into its own tables changes
// the rest of the walk as it would page by page. While a guard is armed the
// walk reads each page's entries as Translate does and hands fn one page at
// a time, so every guarded read traps as often, and in the same order, as a
// page-by-page walk.
func (w Walker) Walk(va VA, n uint64, need PTEFlag, fn func(pa PA, off, cnt uint64) error) error {
	var buf [ptEntries]uint64
	size := w.Pool.Size()
	for off := uint64(0); off < n; {
		at := va + VA(off)
		if uint64(at)>>vaBits != 0 {
			return &PageFault{VA: at}
		}
		var ents []uint64
		var held tableSlots
		ok := true
		if w.Pool.guarded() {
			// Read as Translate reads, so every guarded read traps in turn,
			// and hand fn the page alone.
			buf[0], ok = w.entry(at)
			ents = buf[:1]
		} else {
			ents, held, ok = w.entries(at, n-off, buf[:])
		}
		if !ok {
			return &PageFault{VA: at}
		}
		var runPA PA
		runOff, runLen := off, uint64(0)
		flush := func() error {
			if runLen == 0 {
				return nil
			}
			err := fn(runPA, runOff, runLen)
			runLen = 0
			return err
		}
		for _, e := range ents {
			base, flags, isTable, valid := w.Format.decode(e)
			if !valid || isTable {
				if err := flush(); err != nil {
					return err
				}
				return &PageFault{VA: va + VA(off)}
			}
			if flags&need != need {
				if err := flush(); err != nil {
					return err
				}
				return &PageFault{VA: va + VA(off), Mapped: true, Flags: flags}
			}
			pa := base + PA(uint64(va+VA(off))%PageSize)
			cnt := min(PageSize-uint64(pa)%PageSize, n-off)
			if runLen > 0 && (pa != runPA+PA(runLen) || uint64(pa)+cnt > size) {
				if err := flush(); err != nil {
					return err
				}
			}
			if runLen == 0 {
				runPA, runOff = pa, off
			}
			runLen += cnt
			off += cnt
			if held.holds(base) {
				break // the run may rewrite entries read: read them again
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// entries returns the last-level entries for the pages of the range that
// starts at at and runs left bytes, up to the end of at's table, and where
// the walk read them. It reads the L1 and L2 entries and then the table's
// entries with one locked read each, so no guard may be armed. ok is false
// when an L1 or L2 entry on the way is not a table.
func (w Walker) entries(at VA, left uint64, buf []uint64) ([]uint64, tableSlots, bool) {
	var slot [2]PA
	table := w.Root
	for level := 0; level < 2; level++ {
		slot[level] = table + PA(levelIndex(at, level)*8)
		w.Pool.read64s(slot[level], buf[:1])
		next, _, isTable, valid := w.Format.decode(buf[0])
		if !valid || !isTable {
			return nil, tableSlots{}, false
		}
		table = next
	}
	first := levelIndex(at, 2)
	ents := buf[:min(ptEntries-first, pagesIn(uint64(at)%PageSize+min(left, ptEntries*PageSize)))]
	w.Pool.read64s(table+PA(first*8), ents)
	return ents, slotsOf(slot, table), true
}

// tableSlots is where a walk read its entries from: the pages of the L1
// entry (an unaligned root can put it across two), of the L2 entry, and the
// last-level table. The zero value holds nothing.
type tableSlots struct {
	pages [4]PA
	read  bool
}

// slotsOf returns the tableSlots of a walk that read its L1 and L2 entries
// at slot and its entries from table.
func slotsOf(slot [2]PA, table PA) tableSlots {
	pageOf := func(pa PA) PA { return pa &^ (PageSize - 1) }
	return tableSlots{pages: [4]PA{table, pageOf(slot[1]), pageOf(slot[0]), pageOf(slot[0] + 7)}, read: true}
}

// holds reports whether the page at page, page-aligned, is one of them.
func (h tableSlots) holds(page PA) bool {
	return h.read && (page == h.pages[0] || page == h.pages[1] || page == h.pages[2] || page == h.pages[3])
}
