package gpumem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoolReadZeroFill(t *testing.T) {
	p := NewPool(1 << 20)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xAA
	}
	p.Read(0x1000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0 from unmaterialized page", i, b)
		}
	}
	if p.MaterializedBytes() != 0 {
		t.Fatalf("read materialized %d bytes", p.MaterializedBytes())
	}
}

func TestPoolWriteRead(t *testing.T) {
	p := NewPool(1 << 20)
	data := []byte("hello gpu shared memory")
	p.Write(0x2FF0, data) // crosses a page boundary
	got := make([]byte, len(data))
	p.Read(0x2FF0, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip = %q, want %q", got, data)
	}
}

func TestPoolWords(t *testing.T) {
	p := NewPool(1 << 20)
	p.Write32(0x100, 0xDEADBEEF)
	if got := p.Read32(0x100); got != 0xDEADBEEF {
		t.Fatalf("Read32 = %#x", got)
	}
	p.Write64(0x200, 0x0123456789ABCDEF)
	if got := p.Read64(0x200); got != 0x0123456789ABCDEF {
		t.Fatalf("Read64 = %#x", got)
	}
}

func TestPoolBoundsPanic(t *testing.T) {
	p := NewPool(PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write did not panic")
		}
	}()
	p.Write(PageSize-2, []byte{1, 2, 3})
}

// TestFreePagesRejectsBadRange: a free that runs past the pool or overlaps
// pages already free panics and leaves the pool as it was, so no later
// allocation gets pages outside the pool or pages another allocation holds.
func TestFreePagesRejectsBadRange(t *testing.T) {
	mustPanic := func(what string, free func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		free()
	}

	// A double free of one page of a full 4-page pool.
	p := NewPool(4 * PageSize)
	pa, err := p.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	p.FreePages(pa, 1)
	gen := p.Gen()
	mustPanic("double free", func() { p.FreePages(pa, 1) })
	if p.Gen() != gen {
		t.Fatalf("rejected free moved the generation from %d to %d", gen, p.Gen())
	}
	if got, err := p.AllocPages(1); err != nil || got != pa {
		t.Fatalf("first allocation after the rejected free: PA %#x, %v; want %#x", got, err, pa)
	}
	if got, err := p.AllocPages(1); err == nil {
		t.Fatalf("a freed page was handed out twice: second allocation got PA %#x", got)
	}

	// A free straddling an allocated page and a free one.
	p = NewPool(4 * PageSize)
	if _, err := p.AllocPages(2); err != nil {
		t.Fatal(err)
	}
	p.Write32(PageSize, 7)
	mustPanic("overlapping free", func() { p.FreePages(PageSize, 2) })
	if got := p.Read32(PageSize); got != 7 {
		t.Fatalf("rejected free dropped an allocated page's contents: read %d", got)
	}
	if _, err := p.AllocPages(3); err == nil {
		t.Fatal("rejected free grew the free list")
	}

	// A free past the end of a 2-page pool.
	p = NewPool(2 * PageSize)
	mustPanic("free past the pool", func() { p.FreePages(8*PageSize, 4) })
	mustPanic("free running off the pool", func() { p.FreePages(PageSize, 2) })
	if got, err := p.AllocPages(3); err == nil {
		t.Fatalf("allocation of 3 pages from a 2-page pool got PA %#x", got)
	}
}

func TestAllocFreeCoalesce(t *testing.T) {
	p := NewPool(16 * PageSize)
	a, err := p.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.AllocPages(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocPages(1); err == nil {
		t.Fatal("allocation from exhausted pool succeeded")
	}
	// Free middle, then first, then last: must coalesce back to one range.
	p.FreePages(b, 4)
	p.FreePages(a, 4)
	p.FreePages(c, 8)
	if got, err := p.AllocPages(16); err != nil || got != 0 {
		t.Fatalf("re-alloc after coalescing = (%#x, %v), want (0, nil)", got, err)
	}
}

func TestFreeDropsStorage(t *testing.T) {
	p := NewPool(8 * PageSize)
	pa, _ := p.AllocPages(2)
	p.Write(pa, bytes.Repeat([]byte{0xFF}, 2*PageSize))
	if p.MaterializedBytes() != 2*PageSize {
		t.Fatalf("materialized %d", p.MaterializedBytes())
	}
	p.FreePages(pa, 2)
	if p.MaterializedBytes() != 0 {
		t.Fatalf("free kept %d bytes materialized", p.MaterializedBytes())
	}
	// Re-allocated pages must read zero, not stale data.
	pa2, _ := p.AllocPages(2)
	if got := p.Read32(pa2); got != 0 {
		t.Fatalf("recycled page reads %#x, want 0", got)
	}
}

func TestZeroRange(t *testing.T) {
	p := NewPool(1 << 20)
	p.Write(0, bytes.Repeat([]byte{0x55}, 3*PageSize))
	// Zero a span covering a partial page, a full page, and a partial page.
	p.ZeroRange(100, 2*PageSize)
	buf := make([]byte, 3*PageSize)
	p.Read(0, buf)
	for i, b := range buf {
		want := byte(0x55)
		if i >= 100 && i < 100+2*PageSize {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
	// The wholly-zeroed middle page should be dematerialized.
	if p.MaterializedBytes() != 2*PageSize {
		t.Fatalf("materialized %d, want 2 pages (edges only)", p.MaterializedBytes())
	}
}

// dropPages frees n pages at pa and allocates them straight back: their
// contents drop and their generation moves as on any free, while the pages
// stay allocated, so dropping them again is no double free. No free page may
// lie below pa, or the allocation would return another range.
func dropPages(tb testing.TB, p *Pool, pa PA, n uint64) {
	tb.Helper()
	p.FreePages(pa, n)
	if got, err := p.AllocPages(n); err != nil || got != pa {
		tb.Fatalf("re-allocating %d dropped pages at %#x: got %#x, %v", n, pa, got, err)
	}
}

// TestPoolGenerationInvariant checks the property every user of the pool's
// page generations relies on: a page whose generation has not moved past G
// holds the bytes it held at G. Seeded sequences of Write, Write32 and
// Write64 (partial pages, page-straddling spans, identical rewrites, A→B→A
// rewrites, zeros over unmaterialized pages), ZeroRange and FreePages (as
// dropPages) run on a small, fully allocated pool, which is copied at a
// generation every few operations. After
// every operation, each page that DirtySince reports clean since one of the
// last four copies must equal that copy.
func TestPoolGenerationInvariant(t *testing.T) {
	const pages = 12
	const size = pages * PageSize
	type mark struct {
		gen uint64
		mem []byte
	}
	checked, rewrites := 0, 0 // clean pages compared; content-equal writes that left pages clean
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		p := NewPool(size)
		if _, err := p.AllocPages(pages); err != nil {
			t.Fatal(err)
		}
		read := func() []byte {
			b := make([]byte, size)
			p.ReadInto(0, b)
			return b
		}
		random := func(n int) []byte {
			b := make([]byte, n)
			rnd.Read(b)
			return b
		}
		var marks []mark
		for op := 0; op < 400; op++ {
			if op%8 == 0 {
				marks = append(marks, mark{p.Gen(), read()})
				if len(marks) > 4 {
					marks = marks[1:]
				}
			}
			pa := PA(rnd.Intn(size - 8))
			n := 1 + rnd.Intn(min(3*PageSize/2, size-int(pa)))
			before := p.Gen()
			kind := rnd.Intn(9)
			switch kind {
			case 0: // random bytes, up to a page and a half
				p.Write(pa, random(n))
			case 1:
				p.Write32(pa, rnd.Uint32())
			case 2:
				p.Write64(pa, rnd.Uint64())
			case 3: // an identical rewrite
				b := make([]byte, n)
				p.ReadInto(pa, b)
				p.Write(pa, b)
			case 4: // A→B→A
				b := make([]byte, n)
				p.ReadInto(pa, b)
				p.Write(pa, random(n))
				p.Write(pa, b)
			case 5: // zeros, often over unmaterialized pages
				p.Write(pa, make([]byte, n))
			case 6:
				p.ZeroRange(pa, uint64(n))
			case 7: // one or two whole pages
				dropPages(t, p, PA(rnd.Intn(pages-1)*PageSize), uint64(1+rnd.Intn(2)))
			case 8: // a span straddling a page boundary
				at := PA((1+rnd.Intn(pages-1))*PageSize - 1 - rnd.Intn(16))
				p.Write(at, random(2+rnd.Intn(32)))
			}
			if (kind == 3 || kind == 5) && !p.DirtySince(pa, uint64(n), before) {
				rewrites++
			}
			now := read()
			for _, m := range marks {
				for pg := 0; pg < pages; pg++ {
					at := pg * PageSize
					if p.DirtySince(PA(at), PageSize, m.gen) {
						continue
					}
					checked++
					if !bytes.Equal(now[at:at+PageSize], m.mem[at:at+PageSize]) {
						t.Fatalf("seed %d op %d (kind %d): page %d changed since generation %d, which it has not moved past",
							seed, op, kind, pg, m.gen)
					}
				}
			}
		}
	}
	if checked < 1000 || rewrites < 50 {
		t.Fatalf("only %d clean pages compared and %d content-equal writes left clean", checked, rewrites)
	}
	t.Logf("%d clean pages compared, %d content-equal writes left their pages clean", checked, rewrites)
}

// TestFirstDirtySpan checks FirstDirtySpan against DirtySince asked span by
// span: over seeded writes and ranges on and off the page grid, with
// partial last spans, and at generations before, between and after the
// writes, it must name the first PageSize span, counted from the range's
// start, that DirtySince reports changed, or the number of spans.
func TestFirstDirtySpan(t *testing.T) {
	const pages = 16
	rnd := rand.New(rand.NewSource(23))
	p := NewPool(pages * PageSize)
	var gens []uint64
	for i := 0; i < 24; i++ {
		gens = append(gens, p.Gen())
		b := make([]byte, 1+rnd.Intn(64))
		rnd.Read(b)
		p.Write(PA(rnd.Intn(pages*PageSize-len(b))), b)
	}
	gens = append(gens, p.Gen())
	found := 0
	for i := 0; i < 2000; i++ {
		pa := PA(rnd.Intn(pages * PageSize))
		if i%2 == 0 {
			pa &^= PageSize - 1
		}
		n := uint64(rnd.Intn(pages*PageSize - int(pa) + 1))
		since := gens[rnd.Intn(len(gens))]
		spans := int((n + PageSize - 1) / PageSize)
		want := spans
		for k := 0; k < spans; k++ {
			off := uint64(k) * PageSize
			if p.DirtySince(pa+PA(off), min(PageSize, n-off), since) {
				want = k
				break
			}
		}
		if got := p.FirstDirtySpan(pa, n, since); got != want {
			t.Fatalf("FirstDirtySpan(%#x, %d, %d) = %d, want %d of %d spans", pa, n, since, got, want, spans)
		}
		if want < spans {
			found++
		}
	}
	if found < 500 {
		t.Fatalf("only %d ranges had a changed span", found)
	}
}

// Property: write-then-read returns what was written, at arbitrary offsets
// and lengths.
func TestPropertyPoolRoundTrip(t *testing.T) {
	p := NewPool(1 << 22)
	f := func(off uint32, data []byte) bool {
		pa := PA(off % (1<<22 - 70000))
		if len(data) > 65536 {
			data = data[:65536]
		}
		p.Write(pa, data)
		got := make([]byte, len(data))
		p.Read(pa, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGuardTrapsAccess(t *testing.T) {
	p := NewPool(1 << 20)
	var violations []*GuardViolation
	p.OnGuardViolation(func(v *GuardViolation) { violations = append(violations, v) })
	p.Guard(0x2000, 2*PageSize, "dumped-metastate")

	p.Write(0x1000, []byte{1}) // outside: fine
	p.Write(0x2800, []byte{1}) // inside: trapped
	p.Read(0x3000, make([]byte, 8))
	p.Read(0x4000, make([]byte, 8)) // just past the range end: fine
	if len(violations) != 2 {
		t.Fatalf("%d violations, want 2: %+v", len(violations), violations)
	}
	if !violations[0].Write || violations[0].Label != "dumped-metastate" {
		t.Fatalf("first violation: %+v", violations[0])
	}
	if violations[1].Write {
		t.Fatalf("second violation should be a read: %+v", violations[1])
	}
	p.UnguardAll()
	p.Write(0x2800, []byte{2})
	if len(violations) != 2 {
		t.Fatal("access trapped after UnguardAll")
	}
}

func TestGuardStraddlingAccess(t *testing.T) {
	p := NewPool(1 << 20)
	hit := 0
	p.OnGuardViolation(func(*GuardViolation) { hit++ })
	p.Guard(0x2000, PageSize, "g")
	// A write that begins before the range but overlaps it must trap.
	p.Write(0x1FF0, make([]byte, 64))
	if hit != 1 {
		t.Fatalf("straddling write not trapped (hit=%d)", hit)
	}
}

func TestGuardWithoutHandlerPanics(t *testing.T) {
	p := NewPool(1 << 20)
	p.Guard(0, PageSize, "g")
	defer func() {
		if recover() == nil {
			t.Fatal("guarded access without handler did not panic")
		}
	}()
	p.Write(0, []byte{1})
}

// TestAllZeroMatchesByteLoop checks allZero against a byte loop on every
// length from 0 to two pages and eight bytes, at two alignments, all-zero
// and with one nonzero byte at the first position, the last, and each side
// of every page boundary.
func TestAllZeroMatchesByteLoop(t *testing.T) {
	byteLoop := func(b []byte) bool {
		for _, v := range b {
			if v != 0 {
				return false
			}
		}
		return true
	}
	backing := make([]byte, 2*PageSize+8+3)
	for _, align := range []int{0, 3} {
		for n := 0; n <= 2*PageSize+7; n++ {
			b := backing[align : align+n]
			if !allZero(b) {
				t.Fatalf("align %d, len %d: all zeros reported nonzero", align, n)
			}
			for _, at := range []int{0, n - 1, PageSize - 1, PageSize, 2*PageSize - 1, 2 * PageSize} {
				if at < 0 || at >= n {
					continue
				}
				b[at] = 0x80
				if got, want := allZero(b), byteLoop(b); got != want {
					t.Fatalf("align %d, len %d, nonzero at %d: allZero = %v, byte loop %v", align, n, at, got, want)
				}
				b[at] = 0
			}
		}
	}
}
