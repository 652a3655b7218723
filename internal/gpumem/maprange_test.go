package gpumem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// mapPerPage is MapRange page by page, as it was before the per-table
// batches: the reference TestMapRangeMatchesPerPageMap holds MapRange to.
func mapPerPage(t *PageTable, va VA, pa PA, n uint64, flags PTEFlag) error {
	for off := uint64(0); off < n; off += PageSize {
		if err := t.Map(va+VA(off), pa+PA(off), flags); err != nil {
			return err
		}
	}
	return nil
}

// mapStep is one mapping, after an optional setup.
type mapStep struct {
	name  string
	va    VA
	pa    PA
	n     uint64
	flags PTEFlag
	// setup, when set, writes raw entries before the mapping.
	setup func(t *PageTable)
	guard bool // arm a guard on the root table before mapping
}

// mapWorld is one side of the differential test.
type mapWorld struct {
	pool  *Pool
	pt    *PageTable
	traps []string
}

func newMapWorld(t *testing.T) *mapWorld {
	pool, pt := newTestTable(t, FormatAArch64)
	w := &mapWorld{pool: pool, pt: pt}
	pool.OnGuardViolation(func(v *GuardViolation) { w.traps = append(w.traps, v.Error()) })
	return w
}

// apply runs step on w with mapFn and describes the outcome: the error, and
// the pages changed since the generation before the step.
func (w *mapWorld) apply(step mapStep, mapFn func(*PageTable, VA, PA, uint64, PTEFlag) error) string {
	if step.setup != nil {
		step.setup(w.pt)
	}
	if step.guard {
		w.pool.Guard(w.pt.Root(), PageSize, "root")
		defer w.pool.UnguardAll()
	}
	gen := w.pool.Gen()
	err := mapFn(w.pt, step.va, step.pa, step.n, step.flags)
	var dirty []PA
	for pa := PA(0); uint64(pa) < w.pool.Size(); pa += PageSize {
		if w.pool.DirtySince(pa, PageSize, gen) {
			dirty = append(dirty, pa)
		}
	}
	return fmt.Sprintf("err=%v dirty=%x", err, dirty)
}

// pageEntry writes a page entry (not a table) into the entry at level that
// leads to va, so a mapping through it meets a page where it needs a
// table.
func pageEntry(va VA, level int) func(t *PageTable) {
	return func(t *PageTable) {
		table := t.root
		for l := 0; l < level; l++ {
			next, _, _, _ := t.format.decode(t.pool.Read64(table + PA(levelIndex(va, l)*8)))
			table = next
		}
		t.pool.Write64(table+PA(levelIndex(va, level)*8), t.format.encode(0x7000, PTERead, false))
	}
}

// selfTable points va's L2 entry at the L2 table that holds it, so the
// last-level table of va is also the table on its own path: a mapping from
// va writes its first page's entry over that L2 entry, and the next page's
// walk meets a page where it needs a table.
func selfTable(va VA) func(t *PageTable) {
	return func(t *PageTable) {
		l2, _, _, _ := t.format.decode(t.pool.Read64(t.root + PA(levelIndex(va, 0)*8)))
		t.pool.Write64(l2+PA(levelIndex(va, 1)*8), t.format.encode(l2, 0, true))
	}
}

// TestMapRangeMatchesPerPageMap holds MapRange to Map page by page: the
// same error, pool bytes, table pages in the same order, and pages changed
// since the generation before each mapping. The steps start mid-table, cross
// last-level and L2 boundaries, extend and remap partly mapped tables, meet
// page entries at L1 and L2, map under a guarded table, and map through a
// table on its own path; then seeded random mappings follow.
func TestMapRangeMatchesPerPageMap(t *testing.T) {
	const base = VA(0x10000000)
	rw := PTERead | PTEWrite
	steps := []mapStep{
		{name: "mid-table", va: base + 100*PageSize, pa: 0x200000, n: 50 * PageSize, flags: rw},
		{name: "across two tables", va: base + 500*PageSize, pa: 0x400000, n: 600 * PageSize, flags: PTERead},
		{name: "extend a partly mapped table", va: base + 150*PageSize, pa: 0x300000, n: 10 * PageSize, flags: rw},
		{name: "remap across mapped and unmapped", va: base + 120*PageSize, pa: 0x500000, n: 45 * PageSize, flags: PTERead | PTEExec},
		{name: "identical remap", va: base + 100*PageSize, pa: 0x200000, n: 50 * PageSize, flags: rw},
		{name: "across 1 GiB", va: 1<<30 - 3*PageSize, pa: 0x600000, n: 6 * PageSize, flags: rw},
		{name: "partial last page", va: base + 2000*PageSize, pa: 0x700000, n: 5*PageSize + 100, flags: rw},
		{name: "empty", va: base + 3000*PageSize, pa: 0x700000, flags: rw},
		{name: "L1 page entry", va: 0x80000000 - 2*PageSize, pa: 0x800000, n: 5 * PageSize, flags: rw,
			setup: pageEntry(0x80000000, 0)},
		{name: "L2 page entry", va: base + 1536*PageSize - 3*PageSize, pa: 0x800000, n: 6 * PageSize, flags: rw,
			setup: pageEntry(base+1536*PageSize, 1)},
		{name: "guarded table", va: base + 40*PageSize, pa: 0x900000, n: 20 * PageSize, flags: rw, guard: true},
		{name: "before a table on its own path", va: 0x40000000, pa: 0xa00000, n: 20 * PageSize, flags: rw},
		{name: "table on its own path", va: 0x40000000, pa: 0xa00000, n: 20 * PageSize, flags: rw,
			setup: selfTable(0x40000000)},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		steps = append(steps, mapStep{
			name:  fmt.Sprintf("random %d", i),
			va:    base + VA(rng.Intn(4096)*PageSize),
			pa:    PA(rng.Intn(2048) * PageSize),
			n:     uint64(rng.Intn(1200*PageSize + 1)),
			flags: PTEFlag(rng.Intn(8)),
			guard: rng.Intn(8) == 0,
		})
	}
	got, want := newMapWorld(t), newMapWorld(t)
	for _, step := range steps {
		g := got.apply(step, (*PageTable).MapRange)
		w := want.apply(step, mapPerPage)
		if g != w {
			t.Fatalf("%s: MapRange gave %s, per page %s", step.name, g, w)
		}
		if fmt.Sprint(got.pt.Pages()) != fmt.Sprint(want.pt.Pages()) {
			t.Fatalf("%s: MapRange left table pages %x, per page %x", step.name, got.pt.Pages(), want.pt.Pages())
		}
		if fmt.Sprint(got.traps) != fmt.Sprint(want.traps) {
			t.Fatalf("%s: MapRange trapped %q, per page %q", step.name, got.traps, want.traps)
		}
		gb, wb := make([]byte, got.pool.Size()), make([]byte, want.pool.Size())
		got.pool.ReadInto(0, gb)
		want.pool.ReadInto(0, wb)
		if !bytes.Equal(gb, wb) || got.pool.MaterializedBytes() != want.pool.MaterializedBytes() {
			t.Fatalf("%s: the pools differ", step.name)
		}
	}
	if len(got.traps) == 0 {
		t.Fatal("no mapping trapped: the guarded steps test nothing")
	}
}

// BenchmarkMapRange maps 512 MiB into a fresh page table: 256 last-level
// tables.
func BenchmarkMapRange(b *testing.B) {
	const n = 512 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool := NewPool(1 << 30)
		pt, err := NewPageTable(pool, FormatLPAE)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := pt.MapRange(0x10000000, 0x100000, n, PTERead|PTEWrite); err != nil {
			b.Fatal(err)
		}
	}
}
