package isa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpurelay/internal/gpumem"
)

// A walk world is a small pool and a page table seeded to exercise the
// range walk: windows of VA space mapped page by page with holes, mixed
// permissions, runs of contiguous PAs broken by jumps, and the odd page past
// the pool's end. Tables fill the pool from the bottom; data pages live in
// its upper half.
const (
	walkPoolSize = 2 << 20
	walkDataBase = 1 << 20
	walkPage     = gpumem.PageSize
)

// walkWindow is a stretch of VA space a walk world maps.
type walkWindow struct {
	va    gpumem.VA
	pages int
}

var walkWindows = []walkWindow{
	{0x10000000 + 2<<20 - 8*walkPage, 24}, // across a last-level (2 MiB) table boundary
	{1<<30 - 6*walkPage, 12},              // across an L2 (1 GiB) boundary
	{1<<39 - 5*walkPage, 5},               // the top of the 39-bit space
	{0x20000000 - 520*walkPage, 1040},     // two whole tables and the ends of two more
	{0x30000000, walkSelfPage + 11},       // one page maps its own last-level table
}

// walkSelfPage is the page of the last window mapped, read-write, to the
// window's own last-level table.
const walkSelfPage = 5

// LPAE page-entry bits (gpumem.FormatLPAE), for tests that write entries.
const (
	lpaeValid = 1
	lpaeRead  = 1 << 2
	lpaeWrite = 1 << 3
)

type walkWorld struct {
	pool      *gpumem.Pool
	pt        *gpumem.PageTable
	mem       Mem
	selfTable gpumem.PA // the last window's last-level table
	traps     []string
}

// guardKinds are what newWalkWorld arms a guard on, by guard argument.
const (
	guardNone = iota
	guardTable
	guardData
	guardBoth
)

func newWalkWorld(t testing.TB, seed int64, guard int) *walkWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := gpumem.NewPool(walkPoolSize)
	pt, err := gpumem.NewPageTable(pool, gpumem.FormatLPAE)
	if err != nil {
		t.Fatal(err)
	}
	w := &walkWorld{pool: pool, pt: pt, mem: Mem{Pool: pool, Walker: gpumem.Walker{
		Pool: pool, Format: gpumem.FormatLPAE, Root: pt.Root(),
	}}}
	const R, W, X = gpumem.PTERead, gpumem.PTEWrite, gpumem.PTEExec
	perms := []gpumem.PTEFlag{R | W, R | W, R | W, R | W, R, W, R | X, R | W | X, 0}
	dataPages := (walkPoolSize - walkDataBase) / walkPage
	next := gpumem.PA(walkDataBase)
	for wi, win := range walkWindows {
		for i := 0; i < win.pages; i++ {
			va := win.va + gpumem.VA(i*walkPage)
			self := wi == len(walkWindows)-1
			if self && i == walkSelfPage {
				if err := pt.Map(va, w.selfTable, R|W); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// The last window's pages up to its table page are a plain
			// read-write run, so a store reaches the table page.
			lead := self && i < walkSelfPage
			if !lead && rng.Intn(8) == 0 {
				continue // a hole
			}
			pa, flags := next, R|W
			if !lead {
				switch r := rng.Intn(16); {
				case r < 4:
					pa = gpumem.PA(walkDataBase + rng.Intn(dataPages)*walkPage)
				case r == 4:
					pa = gpumem.PA(walkPoolSize + rng.Intn(4)*walkPage)
				}
				flags = perms[rng.Intn(len(perms))]
			}
			if pa < walkPoolSize {
				next = walkDataBase + (pa-walkDataBase+walkPage)%(walkPoolSize-walkDataBase)
			}
			before := len(pt.Pages())
			if err := pt.Map(va, pa, flags); err != nil {
				t.Fatal(err)
			}
			if self && i == 0 {
				pages := pt.Pages()
				if len(pages) == before {
					t.Fatal("the last window shares a last-level table")
				}
				w.selfTable = pages[len(pages)-1]
			}
		}
	}
	page := make([]byte, walkPage)
	for p := 0; p < dataPages; p++ {
		if rng.Intn(2) == 0 {
			rng.Read(page)
			if rng.Intn(4) == 0 {
				clear(page[rng.Intn(walkPage):]) // a zero tail
			}
			pool.Write(gpumem.PA(walkDataBase+p*walkPage), page)
		}
	}
	pool.OnGuardViolation(func(v *gpumem.GuardViolation) { w.traps = append(w.traps, v.Error()) })
	if guard == guardTable || guard == guardBoth {
		tables := pt.Pages()
		pool.Guard(tables[rng.Intn(len(tables))], walkPage, "table")
	}
	if guard == guardData || guard == guardBoth {
		pool.Guard(gpumem.PA(walkDataBase+rng.Intn(dataPages)*walkPage), uint64(1+rng.Intn(3))*walkPage, "data")
	}
	return w
}

// walkOp is one Mem operation over [va, va+n).
type walkOp struct {
	kind byte
	va   gpumem.VA
	n    uint64
	seed int64 // StoreF32's values
}

const (
	opRangeZero = iota
	opCheckRead
	opCheckWrite
	opReadExec
	opReadBytes
	opLoadF32
	opStoreF32
	opZeroOut
	walkOpKinds
)

// walkOpBytes is the encoded size of one walkOp: kind, window, then four
// little-endian 16-bit fields: the start's page and byte in the page, and
// the length's pages and bytes.
const walkOpBytes = 10

// decodeWalkOps turns bytes into at most 24 operations. Each starts at any
// byte within two pages of a window and runs up to the window's length
// past it.
func decodeWalkOps(data []byte) []walkOp {
	var ops []walkOp
	for i := 0; len(data) >= walkOpBytes && i < 24; i, data = i+1, data[walkOpBytes:] {
		win := walkWindows[int(data[1])%len(walkWindows)]
		field := func(k int) int { return int(binary.LittleEndian.Uint16(data[2+2*k:])) }
		page, pages := field(0)%(win.pages+4), field(2)%(win.pages+1)
		ops = append(ops, walkOp{
			kind: data[0] % walkOpKinds,
			va:   win.va + gpumem.VA((page-2)*walkPage+field(1)%walkPage),
			n:    uint64(pages*walkPage + field(3)%walkPage),
			seed: int64(i),
		})
	}
	return ops
}

// encodeWalkOp is decodeWalkOps' inverse for one op: kind over
// [page+startB, +pages+lenB) of window win, pages counted from its start.
func encodeWalkOp(kind byte, win, page, startB, pages, lenB int) []byte {
	b := []byte{kind, byte(win), 0, 0, 0, 0, 0, 0, 0, 0}
	for k, v := range []int{page + 2, startB, pages, lenB} {
		binary.LittleEndian.PutUint16(b[2+2*k:], uint16(v))
	}
	return b
}

// walker is the operations a differential run calls: Mem's and refMem's.
type walker interface {
	checkRange(va gpumem.VA, n uint64, need gpumem.PTEFlag) error
	ReadBytes(va gpumem.VA, n uint64, need gpumem.PTEFlag) ([]byte, error)
	LoadF32(va gpumem.VA, n int) ([]float32, error)
	StoreF32(va gpumem.VA, data []float32) error
	rangeZero(va gpumem.VA, n uint64) bool
	zeroOut(va gpumem.VA, n uint64) error
}

// run applies op through m and describes what it returned, faulted or
// panicked with.
func (op walkOp) run(m walker) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out += fmt.Sprintf(" panic: %v", r)
		}
	}()
	desc := func(v any, err error) string { return fmt.Sprintf("%v err=%v", v, err) }
	switch op.kind {
	case opRangeZero:
		return fmt.Sprint("zero=", m.rangeZero(op.va, op.n))
	case opCheckRead:
		return desc(nil, m.checkRange(op.va, op.n, gpumem.PTERead))
	case opCheckWrite:
		return desc(nil, m.checkRange(op.va, op.n, gpumem.PTEWrite))
	case opReadExec, opReadBytes:
		need := gpumem.PTERead
		if op.kind == opReadExec {
			need |= gpumem.PTEExec
		}
		b, err := m.ReadBytes(op.va, op.n, need)
		return desc(fmt.Sprintf("%d bytes %x", len(b), sha256.Sum256(b)), err)
	case opLoadF32:
		v, err := m.LoadF32(op.va, int(op.n/4))
		raw := make([]byte, 4*len(v))
		for i, f := range v {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(f))
		}
		return desc(fmt.Sprintf("%d values %x", len(v), sha256.Sum256(raw)), err)
	case opStoreF32:
		rng := rand.New(rand.NewSource(op.seed))
		v := make([]float32, op.n/4)
		for i := range v {
			v[i] = math.Float32frombits(rng.Uint32())
		}
		return desc(nil, m.StoreF32(op.va, v))
	default:
		return desc(nil, m.zeroOut(op.va, op.n))
	}
}

// need is the permission op's walk asks for.
func (op walkOp) need() gpumem.PTEFlag {
	switch op.kind {
	case opCheckWrite, opStoreF32, opZeroOut:
		return gpumem.PTEWrite
	case opReadExec:
		return gpumem.PTERead | gpumem.PTEExec
	}
	return gpumem.PTERead
}

// chunk is one page's piece of a walk: off in the range, its PA and length.
type chunk struct {
	off uint64
	pa  gpumem.PA
	cnt uint64
}

// walkChunks lists the page pieces a walk of [va, va+n) hands its callback,
// splitting runs at page boundaries, and how the walk ended.
func walkChunks(va gpumem.VA, n uint64, walk func(fn func(pa gpumem.PA, off, cnt uint64) error) error) (out []chunk, end string) {
	defer func() {
		if r := recover(); r != nil {
			end = fmt.Sprintf("panic: %v", r)
		}
	}()
	err := walk(func(pa gpumem.PA, off, cnt uint64) error {
		for cnt > 0 {
			c := min(cnt, walkPage-uint64(va+gpumem.VA(off))%walkPage)
			out = append(out, chunk{off, pa, c})
			pa, off, cnt = pa+gpumem.PA(c), off+c, cnt-c
		}
		return nil
	})
	return out, fmt.Sprint(err)
}

// poolBytes reads the whole pool without consulting guards.
func poolBytes(p *gpumem.Pool) []byte {
	b := make([]byte, p.Size())
	p.ReadInto(0, b)
	return b
}

// checkWalkCase builds two worlds from seed, runs ops through the range walk
// in one and the per-page reference in the other, and fails at the first
// difference: the page pieces a walk covers, an operation's result, fault
// or panic, the guard traps, or the pool's bytes.
func checkWalkCase(t *testing.T, seed int64, guard int, ops []walkOp) {
	t.Helper()
	got, want := newWalkWorld(t, seed, guard), newWalkWorld(t, seed, guard)
	for i, op := range ops {
		gc, gend := walkChunks(op.va, op.n, func(fn func(gpumem.PA, uint64, uint64) error) error {
			return got.mem.forEachRun(op.va, op.n, op.need(), fn)
		})
		wc, wend := walkChunks(op.va, op.n, func(fn func(gpumem.PA, uint64, uint64) error) error {
			return refMem{want.mem}.forEachPage(op.va, op.n, op.need(), fn)
		})
		if gend != wend || fmt.Sprint(gc) != fmt.Sprint(wc) {
			t.Fatalf("seed %d guard %d op %d %+v: walk covered %v, ended %q; per page %v, ended %q",
				seed, guard, i, op, gc, gend, wc, wend)
		}
		if g, w := op.run(got.mem), op.run(refMem{want.mem}); g != w {
			t.Fatalf("seed %d guard %d op %d %+v: range walk gave %q, per page %q", seed, guard, i, op, g, w)
		}
		if fmt.Sprint(got.traps) != fmt.Sprint(want.traps) {
			t.Fatalf("seed %d guard %d op %d %+v: range walk trapped %q, per page %q",
				seed, guard, i, op, got.traps, want.traps)
		}
	}
	if !bytes.Equal(poolBytes(got.pool), poolBytes(want.pool)) ||
		got.pool.MaterializedBytes() != want.pool.MaterializedBytes() {
		t.Fatalf("seed %d guard %d: the pools differ after %d operations", seed, guard, len(ops))
	}
}

// walkCaseBytes draws a seed and ops' bytes for TestRangeWalkMatchesPerPage
// and the fuzz corpus: the world's seed, its guard choice, then the ops.
func walkCaseBytes(rng *rand.Rand, ops int) []byte {
	b := make([]byte, 9+ops*walkOpBytes)
	rng.Read(b)
	return b
}

// decodeWalkCase splits fuzz input into a world seed, a guard choice and
// ops.
func decodeWalkCase(data []byte) (seed int64, guard int, ops []walkOp) {
	var head [9]byte
	copy(head[:], data)
	return int64(binary.LittleEndian.Uint64(head[:])), int(head[8] % 4), decodeWalkOps(data[min(len(data), 9):])
}

// TestRangeWalkMatchesPerPage holds the range walk to the per-page walk on
// seeded worlds and operations: every world without guards, with a guard on
// a table page, on data, and on both.
func TestRangeWalkMatchesPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 200
	if testing.Short() {
		cases = 40
	}
	for c := 0; c < cases; c++ {
		seed, _, ops := decodeWalkCase(walkCaseBytes(rng, 16))
		checkWalkCase(t, seed, c%4, ops)
	}
}

// FuzzRangeWalkMatchesPerPage is TestRangeWalkMatchesPerPage on arbitrary
// worlds and operations.
func FuzzRangeWalkMatchesPerPage(f *testing.F) {
	for _, s := range walkFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seed, guard, ops := decodeWalkCase(data)
		checkWalkCase(t, seed, guard, ops)
	})
}

// walkFuzzSeeds are FuzzRangeWalkMatchesPerPage's seed inputs: three worlds
// for each guard choice, each with operations that cross every window's
// boundary from just before it, walk the long window whole, and store
// through the page that maps its own table; and the empty input.
func walkFuzzSeeds() [][]byte {
	var ops []byte
	for win, boundary := range []int{8, 6, 4, 8} {
		for _, kind := range []byte{opReadBytes, opRangeZero, opCheckWrite, opLoadF32} {
			ops = append(ops, encodeWalkOp(kind, win, boundary-1, 4093, 1, 7)...)
		}
	}
	ops = append(ops, encodeWalkOp(opReadBytes, 3, 0, 0, 1040, 0)...)
	ops = append(ops, encodeWalkOp(opStoreF32, 4, 0, 0, walkSelfPage+3, 0)...)
	ops = append(ops, encodeWalkOp(opReadBytes, 4, 0, 0, walkSelfPage+3, 0)...)
	var seeds [][]byte
	for guard := 0; guard < 4; guard++ {
		for world := 1; world <= 3; world++ {
			head := make([]byte, 9)
			binary.LittleEndian.PutUint64(head, uint64(world))
			head[8] = byte(guard)
			seeds = append(seeds, append(head, ops...))
		}
	}
	return append(seeds, nil)
}

// TestRangeWalkStoreIntoOwnTable stores, through a page mapped read-write
// to its own last-level table, entries that move the rest of the range to
// other pages. The range walk must read the table again after that page, as
// the per-page walk does, and so write the tail where the new entries point.
func TestRangeWalkStoreIntoOwnTable(t *testing.T) {
	win := walkWindows[len(walkWindows)-1]
	for _, guard := range []int{guardNone, guardTable} {
		var tail [2]*walkWorld
		for k, world := range []*walkWorld{newWalkWorld(t, 7, guard), newWalkWorld(t, 7, guard)} {
			// The table page's words: the window's entries, with every page
			// after the table page remapped read-write to page 200+i of the
			// data area.
			vals := make([]float32, (walkSelfPage+3)*walkPage/4)
			table := vals[walkSelfPage*walkPage/4 : (walkSelfPage+1)*walkPage/4]
			first := int(uint64(win.va)>>12) % 512
			for i := 0; i < 512; i++ {
				e := uint64(0)
				if i > first+walkSelfPage && i < first+win.pages {
					e = lpaeValid | lpaeRead | lpaeWrite | uint64(walkDataBase+(200+i)*walkPage)
				}
				table[2*i] = math.Float32frombits(uint32(e))
				table[2*i+1] = math.Float32frombits(uint32(e >> 32))
			}
			for i := range vals[:walkSelfPage*walkPage/4] {
				vals[i] = float32(i)
			}
			tailVals := vals[(walkSelfPage+1)*walkPage/4:]
			for i := range tailVals {
				tailVals[i] = -float32(i)
			}
			var err error
			if k == 0 {
				err = world.mem.StoreF32(win.va, vals)
			} else {
				err = refMem{world.mem}.StoreF32(win.va, vals)
			}
			if err != nil {
				t.Fatalf("guard %d: %v", guard, err)
			}
			tail[k] = world
			moved := make([]byte, walkPage)
			world.pool.ReadInto(gpumem.PA(walkDataBase+(200+first+walkSelfPage+1)*walkPage), moved)
			if got := math.Float32frombits(binary.LittleEndian.Uint32(moved[4:])); got != -1 {
				t.Fatalf("guard %d, walk %d: the page after the table holds %v, want the stored -1 where the new entry points",
					guard, k, got)
			}
		}
		if !bytes.Equal(poolBytes(tail[0].pool), poolBytes(tail[1].pool)) {
			t.Fatalf("guard %d: the pools differ", guard)
		}
		if fmt.Sprint(tail[0].traps) != fmt.Sprint(tail[1].traps) {
			t.Fatalf("guard %d: range walk trapped %q, per page %q", guard, tail[0].traps, tail[1].traps)
		}
	}
}

// TestRangeWalkGuardOnTable arms a guard on the last-level table of a
// mapped range: every read of an entry traps, so a walk traps once per page
// in the same order as the per-page walk.
func TestRangeWalkGuardOnTable(t *testing.T) {
	run := func(walk func(m Mem, va gpumem.VA, n uint64) bool) []string {
		e := newTestEnv(t)
		va := e.alloc(8*walkPage, gpumem.PTERead)
		pages := e.pt.Pages()
		e.pool.Guard(pages[len(pages)-1], walkPage, "table")
		var traps []string
		e.pool.OnGuardViolation(func(v *gpumem.GuardViolation) { traps = append(traps, v.Error()) })
		if !walk(e.mem, va+100, 8*walkPage-200) {
			t.Fatal("a zero range is not zero")
		}
		return traps
	}
	got := run(func(m Mem, va gpumem.VA, n uint64) bool { return m.rangeZero(va, n) })
	want := run(func(m Mem, va gpumem.VA, n uint64) bool { return refMem{m}.rangeZero(va, n) })
	if len(want) != 8 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range walk trapped %d times %q, per page %d times %q (want 8)", len(got), got, len(want), want)
	}
}

// vgg16FC6Bytes is the size of VGG16's fc6 weights: 25088 x 4096 float32.
const vgg16FC6Bytes = 25088 * 4096 * 4

// BenchmarkRangeZero times the dry run's zero test on an unmaterialized
// range the size of VGG16's fc6 weights, mapped in one piece, through
// isa.Mem.
func BenchmarkRangeZero(b *testing.B) {
	pool := gpumem.NewPool(1 << 30)
	pt, err := gpumem.NewPageTable(pool, gpumem.FormatLPAE)
	if err != nil {
		b.Fatal(err)
	}
	pa, err := pool.Alloc(vgg16FC6Bytes)
	if err != nil {
		b.Fatal(err)
	}
	const va = 0x10000000
	if err := pt.MapRange(va, pa, vgg16FC6Bytes, gpumem.PTERead); err != nil {
		b.Fatal(err)
	}
	m := Mem{Pool: pool, Walker: gpumem.Walker{Pool: pool, Format: gpumem.FormatLPAE, Root: pt.Root()}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.rangeZero(va, vgg16FC6Bytes) {
			b.Fatal("fc6 weights are not zero")
		}
	}
}
