package gpumem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// This file checks the page-wise memsync steps against the whole-region
// steps they replace: CaptureState.Capture, which reads from the pool only
// the pages written since its watermark, against a full Capture; the delta
// encoder, which compares only the pages a capture lists, against refEncode;
// and Restore of an image, which writes only the pages its dumps touched and
// the pool changed, against a Restore that writes every region whole.

// syncRig runs one sender's dump chain both ways. The page-wise side
// captures through a CaptureState, encodes through a Codec against its Prev,
// receives onto one image and restores the image into far[k]. The whole side
// captures in full, encodes with refEncode against its previous full
// capture, and restores that capture, which is no image, into ref[k]. Each
// far pool and its reference take the same writes and guards.
type syncRig struct {
	tb      testing.TB
	src     *Pool
	all     []*Region // every region laid out in src
	regions []*Region // the regions synchronized: all, or all but the last
	cs      CaptureState
	c       Codec
	img     *Snapshot
	far     [2]*Pool
	ref     [2]*Pool
	traps   [2][2][]GuardViolation // by side (page-wise, whole) and pool
	// The whole side's last two captures: its delta base, and one more that
	// the page-wise capture is also encoded against.
	prev, older *Snapshot
	full        bool // the next dump is a full one: the first, or after a structural change
	step        int
	seen        map[string]int // what the run covered
}

// newSyncRig lays out regions of the given sizes in a sender pool, every
// third one starting off the page grid, and fills the head of each of their
// pages with seeded bytes: the rest is left to writes, which keeps the range
// coding of full dumps cheap.
func newSyncRig(tb testing.TB, sizes []int) *syncRig {
	const skew = 100 // where an off-grid region starts in its first page
	pages := 1
	for _, n := range sizes {
		pages += (n+skew)/PageSize + 1
	}
	g := &syncRig{tb: tb, src: NewPool(uint64(pages) * PageSize), full: true, seen: map[string]int{}}
	rng := xorshift64(0x9A6E)
	for i, n := range sizes {
		pa, err := g.src.Alloc(uint64(n + skew))
		if err != nil {
			tb.Fatal(err)
		}
		if i%3 == 2 {
			pa += skew
		}
		r := &Region{Name: fmt.Sprintf("r%d", i), Kind: KindCommands, PA: pa,
			VA: VA(0x1000_0000 + uint64(pa)), Size: uint64(n)}
		data := make([]byte, n)
		rng.fill(data)
		for k := range data {
			if k%PageSize >= 64<<(i%2) {
				data[k] = 0
			}
		}
		g.src.Write(pa, data)
		g.all = append(g.all, r)
	}
	g.regions = g.all
	for k := range g.far {
		k := k
		g.far[k], g.ref[k] = NewPool(g.src.Size()), NewPool(g.src.Size())
		g.far[k].OnGuardViolation(func(v *GuardViolation) { g.traps[0][k] = append(g.traps[0][k], *v) })
		g.ref[k].OnGuardViolation(func(v *GuardViolation) { g.traps[1][k] = append(g.traps[1][k], *v) })
	}
	return g
}

// release recycles the rig's snapshots and capture chain.
func (g *syncRig) release() {
	for _, s := range []*Snapshot{g.img, g.prev, g.older} {
		if s != nil {
			s.Release()
		}
	}
	g.cs.Release()
}

// span picks a region and a span of it from an operation's arguments: a
// region index, a 16-bit offset and a length of up to two pages. ok is false
// for a zero-length region.
func (g *syncRig) span(a, b, c byte) (r *Region, off, n int, ok bool) {
	r = g.all[int(a)%len(g.all)]
	if r.Size == 0 {
		return r, 0, 0, false
	}
	off = (int(b)<<8 | int(c)) * 97 % int(r.Size)
	n = min(1+int(c)*31%(2*PageSize), int(r.Size)-off)
	return r, off, n, true
}

// bytesFor returns n bytes drawn from the step number and the arguments.
func (g *syncRig) bytesFor(n int, a, b, c byte) []byte {
	rng := xorshift64(uint64(g.step)<<24 | uint64(a)<<16 | uint64(b)<<8 | uint64(c) | 1)
	out := make([]byte, n)
	rng.fill(out)
	return out
}

// do runs one operation: op selects it, a, b and c are its arguments.
func (g *syncRig) do(op, a, b, c byte) {
	g.tb.Helper()
	g.step++
	switch op % 12 {
	case 0: // new bytes in the sender's pool
		if r, off, n, ok := g.span(a, b, c); ok {
			g.src.Write(r.PA+PA(off), g.bytesFor(n, a, b, c))
		}
	case 1: // a word
		if r, off, _, ok := g.span(a, b, c); ok && int(r.Size)-off >= 8 {
			if c&1 == 0 {
				g.src.Write32(r.PA+PA(off), uint32(g.step)*0x9E3779B1)
			} else {
				g.src.Write64(r.PA+PA(off), uint64(g.step)*0x9E3779B97F4A7C15)
			}
		}
	case 2: // A→B→A: the generation moves, the bytes do not
		if r, off, n, ok := g.span(a, b, c); ok {
			old := make([]byte, n)
			g.src.ReadInto(r.PA+PA(off), old)
			g.src.Write(r.PA+PA(off), g.bytesFor(n, a, b, c))
			g.src.Write(r.PA+PA(off), old)
			g.seen["A→B→A"]++
		}
	case 3:
		if r, off, n, ok := g.span(a, b, c); ok {
			g.src.ZeroRange(r.PA+PA(off), uint64(n))
			g.seen["ZeroRange"]++
		}
	case 4: // drop the page under a byte of a region
		if r, off, _, ok := g.span(a, b, c); ok {
			dropPages(g.tb, g.src, (r.PA+PA(off))&^(PageSize-1), 1)
			g.seen["FreePages"]++
		}
	case 5: // rewrite up to three page spans: a page list of several
		if r, off, _, ok := g.span(a, b, c); ok {
			for k := off / PageSize; k < min(off/PageSize+3, int(r.PagesSpanned())); k++ {
				at := k * PageSize
				g.src.Write(r.PA+PA(at), g.bytesFor(min(PageSize, int(r.Size)-at), a, b, byte(k)))
			}
		}
	case 6: // the receiver's pool changes between a restore and the next dump
		if r, off, n, ok := g.span(a, b, c); ok {
			data, k := g.bytesFor(n, a, b, c), int(c>>7)
			g.far[k].Write(r.PA+PA(off), data)
			g.ref[k].Write(r.PA+PA(off), data)
			g.seen["receiver write"]++
		}
	case 7: // a guarded range on a receiver's pool, or none
		k := int(c >> 7)
		if c&2 != 0 {
			g.far[k].UnguardAll()
			g.ref[k].UnguardAll()
		} else if r, off, n, ok := g.span(a, b, c); ok {
			g.far[k].Guard(r.PA+PA(off), uint64(n), r.Name)
			g.ref[k].Guard(r.PA+PA(off), uint64(n), r.Name)
		}
	case 8: // the last region joins or leaves the dumps
		if len(g.regions) == len(g.all) {
			g.regions = g.all[:len(g.all)-1]
		} else {
			g.regions = g.all
		}
		g.full = true
		g.seen["structural change"]++
	default:
		g.sync(c % 8)
	}
}

// sync runs one dump both ways and compares every step. mode 5 restores into
// the second receiver pool, 6 sends a full dump, 7 an uncompressed delta;
// the others a compressed delta into the first pool.
func (g *syncRig) sync(mode byte) {
	tb := g.tb
	tb.Helper()
	snap := g.cs.Capture(g.src, g.regions, nil)
	whole := Capture(g.src, g.regions, nil)
	if d := snapshotDiff(snap, whole); d != "" {
		tb.Fatalf("step %d: capture differs from a full capture: %s", g.step, d)
	}
	for i := range snap.Regions {
		if len(snap.Regions[i].pages) >= 2 {
			g.seen["page list of several"]++
		}
	}

	opts := EncodeOptions{Compress: mode != 7}
	base, refBase := g.cs.Prev(), g.prev
	if g.full || mode == 6 {
		base, refBase = nil, nil
		g.seen["full dump"]++
	}
	opts.Delta = base != nil
	if opts.Delta && !opts.Compress {
		g.seen["uncompressed delta"]++
	}
	want := refEncode(whole, refBase, opts)
	wire, err := g.c.Encode(snap, base, opts)
	if err != nil || !bytes.Equal(wire, want) {
		tb.Fatalf("step %d: wire differs from refEncode (%d vs %d bytes, %v)", g.step, len(wire), len(want), err)
	}
	if base != nil {
		// Bases that are not the capture's: a copy of it, and the capture
		// before it when the shapes agree.
		other := base.Clone()
		if got, err := snap.Encode(other, opts); err != nil || !bytes.Equal(got, want) {
			tb.Fatalf("step %d: wire against a copy of the capture base differs from refEncode (%v)", g.step, err)
		}
		other.Release()
		if g.older != nil && slices.EqualFunc(g.older.Regions, whole.Regions, func(a, b RegionSnapshot) bool {
			return a.Name == b.Name && len(a.Data) == len(b.Data)
		}) {
			got, err := snap.Encode(g.older, opts)
			if err != nil || !bytes.Equal(got, refEncode(whole, g.older, opts)) {
				tb.Fatalf("step %d: wire against an older base differs from refEncode (%v)", g.step, err)
			}
			g.seen["other base"]++
		}
	}

	img, err := g.c.Receive(wire, g.img)
	if err != nil {
		tb.Fatalf("step %d: receive: %v", g.step, err)
	}
	if err := g.c.Settle(); err != nil {
		tb.Fatalf("step %d: self-check: %v", g.step, err)
	}
	g.img = img
	if d := snapshotDiff(img, whole); d != "" {
		tb.Fatalf("step %d: image differs from the sender's capture: %s", g.step, d)
	}
	k := 0
	if mode == 5 {
		k = 1
		g.seen["second pool"]++
	}
	if img.restored == g.far[k] {
		g.seen["page-wise restore"]++
		for i := range img.Regions {
			if len(img.Regions[i].pages) >= 2 {
				g.seen["touched pages of several"]++
			}
		}
	}
	img.Restore(g.far[k])
	whole.Restore(g.ref[k])
	if d := poolDiff(g.far[k], g.ref[k]); d != "" {
		tb.Fatalf("step %d: pool %d after the image's restore differs from a whole restore: %s", g.step, k, d)
	}
	if !slices.Equal(g.traps[0][k], g.traps[1][k]) {
		tb.Fatalf("step %d: pool %d trapped %v, a whole restore %v", g.step, k, g.traps[0][k], g.traps[1][k])
	}
	if len(g.traps[0][k]) > 0 {
		g.seen["guard trap"]++
	}
	g.traps[0][k], g.traps[1][k] = nil, nil

	g.cs.Commit(snap)
	if g.older != nil {
		g.older.Release()
	}
	g.older, g.prev, g.full = g.prev, whole, false
}

// poolDiff describes the first difference between two pools' contents,
// backing pages and generations, or returns "".
func poolDiff(a, b *Pool) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case a.gen != b.gen:
		return fmt.Sprintf("generation %d vs %d", a.gen, b.gen)
	case !maps.EqualFunc(a.pages, b.pages, bytes.Equal):
		for pg, d := range a.pages {
			if e, ok := b.pages[pg]; !ok || !bytes.Equal(d, e) {
				return fmt.Sprintf("page %d differs", pg)
			}
		}
		return "the pages materialized differ"
	case !maps.Equal(a.pageGen, b.pageGen):
		return "page generations differ"
	}
	return ""
}

// TestImageRestoreFollowsMovedRegion checks that a delta dump whose header
// moves a region, which the base check allows (it compares sizes), makes
// the next Restore of the image write the region whole where it lands, as
// restoring the sender's snapshot whole does.
func TestImageRestoreFollowsMovedRegion(t *testing.T) {
	data := make([]byte, 3*PageSize)
	rng := xorshift64(0x40FE)
	rng.fill(data)
	cur := &Snapshot{Regions: []RegionSnapshot{{Name: "cmds", Kind: KindCommands, Data: data}}}
	next := cur.Clone()
	next.Regions[0].PA = 4 * PageSize
	next.Regions[0].Data[PageSize+5] ^= 0xFF
	far, ref := NewPool(8*PageSize), NewPool(8*PageSize)
	c := &Codec{}
	var img *Snapshot
	for _, s := range [...]struct{ snap, base *Snapshot }{{cur, nil}, {cur, cur}, {next, cur}} {
		wire, err := c.Encode(s.snap, s.base, EncodeOptions{Delta: s.base != nil, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		if img, err = c.Receive(wire, img); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
		img.Restore(far)
		s.snap.Restore(ref)
		if d := poolDiff(far, ref); d != "" {
			t.Fatalf("restoring the image at PA %#x: %s", s.snap.Regions[0].PA, d)
		}
	}
	img.Release()
}

// syncRigLayouts are the region sizes the seeded runs use: sizes on and off
// the page grid, a sub-page region, and a last region that structural
// changes add and drop.
var syncRigLayouts = [][]int{
	{5 * PageSize, 3*PageSize + 100, PageSize / 2, 2 * PageSize},
	{7*PageSize + 9, 4 * PageSize, 100, PageSize, 3 * PageSize},
}

// TestPagewiseSyncMatchesWhole runs seeded operation sequences through
// syncRig: writes, words, A→B→A rewrites, ZeroRange and FreePages in the
// sender's pool, writes to the receivers' pools between restores, guarded
// ranges, structural changes, full, compressed and uncompressed dumps,
// encodes against bases that are not the capture's, and an image restored
// into a second pool. Every capture, wire and restored pool must match the
// whole-region steps, and the runs must cover each of those inputs.
func TestPagewiseSyncMatchesWhole(t *testing.T) {
	seen := map[string]int{}
	for li, layout := range syncRigLayouts {
		for seed := int64(1); seed <= 4; seed++ {
			g := newSyncRig(t, layout)
			rnd := rand.New(rand.NewSource(seed*10 + int64(li)))
			for i := 0; i < 150; i++ {
				op := byte(rnd.Intn(12))
				if i < 2 {
					op = 9 // start with a full dump and a delta
				}
				g.do(op, byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)))
			}
			g.release()
			for k, n := range g.seen {
				seen[k] += n
			}
		}
	}
	for _, k := range []string{"A→B→A", "ZeroRange", "FreePages", "receiver write", "structural change",
		"full dump", "uncompressed delta", "other base", "second pool", "guard trap",
		"page list of several", "page-wise restore", "touched pages of several"} {
		if seen[k] == 0 {
			t.Errorf("no run covered: %s", k)
		}
	}
	t.Logf("covered: %v", seen)
}

// FuzzPagewiseSyncMatchesWhole runs fuzzer-chosen layouts and operation
// sequences through syncRig. layout gives up to five region sizes, two
// bytes each, below four pages; ops is read four bytes at a time, an
// operation and its three arguments (syncRig.do).
func FuzzPagewiseSyncMatchesWhole(f *testing.F) {
	for _, s := range pagewiseFuzzSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, layout, ops []byte) {
		var sizes []int
		for i := 0; i+1 < len(layout) && i < 10; i += 2 {
			sizes = append(sizes, int(binary.LittleEndian.Uint16(layout[i:]))%(4*PageSize))
		}
		if len(sizes) == 0 {
			return
		}
		g := newSyncRig(t, sizes)
		defer g.release()
		for i := 0; i+3 < len(ops) && i < 4*128; i += 4 {
			g.do(ops[i], ops[i+1], ops[i+2], ops[i+3])
		}
		g.do(9, 0, 0, 0)
	})
}

// pagewiseFuzzSeeds returns (layout, ops) pairs: the first seeded run of
// each layout of TestPagewiseSyncMatchesWhole, cut to the fuzz target's
// operation limit, and one short sequence per input it must cover.
func pagewiseFuzzSeeds() [][2][]byte {
	sizes := func(n ...int) []byte {
		var b []byte
		for _, v := range n {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return b
	}
	small := sizes(3*PageSize+5, 2*PageSize, 100)
	var out [][2][]byte
	for li, layout := range syncRigLayouts {
		rnd := rand.New(rand.NewSource(10 + int64(li)))
		var ops []byte
		for i := 0; i < 128; i++ {
			op := byte(rnd.Intn(12))
			if i < 2 {
				op = 9
			}
			ops = append(ops, op, byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)))
		}
		var lb []byte
		for _, n := range layout {
			lb = binary.LittleEndian.AppendUint16(lb, uint16(n%(4*PageSize)))
		}
		out = append(out, [2][]byte{lb, ops})
	}
	return append(out,
		[2][]byte{small, {9, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0, 2, 0, 1, 2, 9, 0, 0, 0}},             // page lists, A→B→A
		[2][]byte{small, {9, 0, 0, 0, 3, 0, 0, 40, 4, 1, 0, 0, 9, 0, 0, 0}},                        // ZeroRange, FreePages
		[2][]byte{small, {9, 0, 0, 0, 9, 0, 0, 0, 6, 0, 0, 9, 5, 0, 0, 0, 9, 0, 0, 0}},             // a receiver write
		[2][]byte{small, {9, 0, 0, 0, 9, 0, 0, 0, 6, 0, 0, 9, 6, 0, 16, 9, 9, 0, 0, 0}},            // two, on two pages
		[2][]byte{small, {9, 0, 0, 0, 7, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0, 7, 0, 0, 2, 9, 0, 0, 0}}, // a guarded range
		[2][]byte{small, {9, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 5, 1, 0, 0, 9, 0, 0, 6, 9, 0, 0, 7}}, // structural, full, raw
		[2][]byte{small, {9, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 5, 5, 0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 5}}, // a second pool
	)
}
