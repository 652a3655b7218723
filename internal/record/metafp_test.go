package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/fuzzcorpus"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/trace"
)

// refSnapFP is the whole-region fingerprint loop that snapFPCached
// replaced, over hash/fnv's FNV-64a instead of the inline accumulator so
// that the two share no hashing code: every call hashes every region's
// name, PA and bytes in full.
func refSnapFP(structure string, snap *gpumem.Snapshot) uint64 {
	u64 := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	h := fnv.New64a()
	h.Write([]byte(structure))
	if snap == nil {
		return h.Sum64()
	}
	for i := range snap.Regions {
		r := &snap.Regions[i]
		rh := fnv.New64a()
		rh.Write([]byte(r.Name))
		rh.Write(u64(uint64(r.PA)))
		rh.Write(r.Data)
		h.Write([]byte(r.Name))
		h.Write(u64(uint64(r.PA)))
		h.Write(u64(rh.Sum64()))
	}
	return h.Sum64()
}

// fpRig runs one capture chain as the syncer runs it (Capture, Commit, then
// metaFP) and checks every fingerprint snapFPCached computes, through one
// long-lived cache and through empty ones, against refSnapFP.
type fpRig struct {
	tb      testing.TB
	pool    *gpumem.Pool
	regions []*gpumem.Region
	// The last region's two homes and full size: it moves between them and
	// shrinks and grows back.
	home, away gpumem.PA
	lastSize   uint64
	cs         gpumem.CaptureState
	structure  string // the fingerprint of the committed capture's regions
	c          fpCache
	step       int
	checks     int
	seen       map[string]int // what the run covered
}

// newFPRig lays out regions of the given sizes in a pool with every page
// allocated, every third region starting off the page grid, and fills each
// region front to back, as a command stream fills: the first quarter, half
// or three quarters of it, and nothing of every fourth region.
func newFPRig(tb testing.TB, sizes []int) *fpRig {
	const skew = 100 // where an off-grid region starts in its first page
	pages := 0
	for _, n := range sizes {
		pages += (n + skew + gpumem.PageSize - 1) / gpumem.PageSize
	}
	pages += (sizes[len(sizes)-1] + skew + gpumem.PageSize - 1) / gpumem.PageSize // the last one's other home
	g := &fpRig{tb: tb, pool: gpumem.NewPool(uint64(pages) * gpumem.PageSize), seen: map[string]int{}}
	alloc := func(n int) gpumem.PA {
		pa, err := g.pool.Alloc(uint64(n + skew))
		if err != nil {
			tb.Fatal(err)
		}
		return pa
	}
	rnd := rand.New(rand.NewSource(int64(len(sizes))))
	for i, n := range sizes {
		pa := alloc(n)
		if i%3 == 2 {
			pa += skew
		}
		g.regions = append(g.regions, &gpumem.Region{Name: fmt.Sprintf("r%d", i),
			Kind: gpumem.KindCommands, PA: pa, VA: gpumem.VA(0x1000_0000 + uint64(pa)), Size: uint64(n)})
		data := make([]byte, n*[]int{1, 2, 3, 0}[i%4]/4)
		rnd.Read(data)
		g.pool.Write(pa, data)
	}
	last := g.regions[len(g.regions)-1]
	g.home, g.away, g.lastSize = last.PA, alloc(int(last.Size)), last.Size
	return g
}

// release recycles the capture chain.
func (g *fpRig) release() { g.cs.Release() }

// span picks a region and a span of it from an operation's arguments: at
// the region's start, at its end, or in its middle, up to two pages long.
// ok is false for a zero-length region.
func (g *fpRig) span(a, b, c byte) (r *gpumem.Region, off, n int, where string, ok bool) {
	r = g.regions[int(a)%len(g.regions)]
	size := int(r.Size)
	if size == 0 {
		return r, 0, 0, "", false
	}
	n = min(1+int(c)*31%(2*gpumem.PageSize), size)
	switch b % 4 {
	case 0:
		return r, 0, n, "start", true
	case 1:
		return r, size - n, n, "end", true
	}
	off = (int(b)<<8 | int(c)) * 97 % size
	return r, off, min(n, size-off), "middle", true
}

// bytesFor returns n bytes drawn from the step number and the arguments.
func (g *fpRig) bytesFor(n int, a, b, c byte) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(int64(g.step)<<24 | int64(a)<<16 | int64(b)<<8 | int64(c))).Read(out)
	return out
}

// do runs one operation: op selects it, a, b and c are its arguments.
func (g *fpRig) do(op, a, b, c byte) {
	g.tb.Helper()
	g.step++
	switch op % 11 {
	case 0: // new bytes at a region's start, middle or end
		if r, off, n, where, ok := g.span(a, b, c); ok {
			g.pool.Write(r.PA+gpumem.PA(off), g.bytesFor(n, a, b, c))
			g.seen["write at "+where]++
		}
	case 1: // A→B→A: the generation moves, the bytes do not
		if r, off, n, _, ok := g.span(a, b, c); ok {
			old := make([]byte, n)
			g.pool.ReadInto(r.PA+gpumem.PA(off), old)
			g.pool.Write(r.PA+gpumem.PA(off), g.bytesFor(n, a, b, c))
			g.pool.Write(r.PA+gpumem.PA(off), old)
			g.seen["A→B→A"]++
		}
	case 2: // the bytes a span already holds
		if r, off, n, _, ok := g.span(a, b, c); ok {
			same := make([]byte, n)
			g.pool.ReadInto(r.PA+gpumem.PA(off), same)
			g.pool.Write(r.PA+gpumem.PA(off), same)
			g.seen["identical rewrite"]++
		}
	case 3:
		if r, off, n, _, ok := g.span(a, b, c); ok {
			g.pool.ZeroRange(r.PA+gpumem.PA(off), uint64(n))
			g.seen["ZeroRange"]++
		}
	case 4: // free the page under a byte of a region and allocate it again
		if r, off, _, _, ok := g.span(a, b, c); ok {
			pa := (r.PA + gpumem.PA(off)) &^ (gpumem.PageSize - 1)
			g.pool.FreePages(pa, 1)
			if got, err := g.pool.AllocPages(1); err != nil || got != pa {
				g.tb.Fatalf("step %d: re-allocating the page at %#x: got %#x, %v", g.step, pa, got, err)
			}
			g.seen["FreePages"]++
		}
	case 5: // the last region moves to its other home
		last := g.regions[len(g.regions)-1]
		if last.PA == g.home {
			last.PA = g.away
		} else {
			last.PA = g.home
		}
		g.seen["moved region"]++
	case 6: // the last region shrinks, or grows back
		last := g.regions[len(g.regions)-1]
		if last.Size == g.lastSize {
			last.Size = g.lastSize * uint64(c%4) / 4
		} else {
			last.Size = g.lastSize
		}
		g.seen["resized region"]++
	case 7: // metaFP again, with the pool changed or not since the capture
		g.check()
	default:
		g.sync()
	}
}

// sync captures the regions against the committed capture, commits it and
// checks the fingerprint.
func (g *fpRig) sync() {
	snap := g.cs.Capture(g.pool, g.regions, nil)
	g.cs.Commit(snap)
	g.structure = fingerprint(g.regions)
	for _, r := range snap.Regions {
		if len(r.Data) == 0 {
			continue
		}
		if bytes.Count(r.Data, []byte{0}) == len(r.Data) {
			g.seen["all-zero region"]++
		}
		for off := 0; off+gpumem.PageSize <= len(r.Data); off += gpumem.PageSize {
			if bytes.Equal(r.Data[off:off+gpumem.PageSize], zeroPage[:]) {
				g.seen["page of zeros"]++
				break
			}
		}
	}
	g.check()
}

// check calls snapFPCached on the committed capture through the rig's
// cache, and every eighth time through an empty one too, and compares each
// value with refSnapFP. A repeated call with the pool unchanged since the
// capture must hash no byte.
func (g *fpRig) check() {
	g.tb.Helper()
	g.checks++
	snap, mark := g.cs.Prev(), g.cs.Watermark()
	want := refSnapFP(g.structure, snap)
	if got := snapFPCached(g.structure, snap, g.pool, mark, &g.c); got != want {
		g.tb.Fatalf("step %d: fingerprint %#x, whole-region loop %#x", g.step, got, want)
	}
	if g.checks%8 == 0 {
		var cold fpCache
		if got := snapFPCached(g.structure, snap, g.pool, mark, &cold); got != want {
			g.tb.Fatalf("step %d: fingerprint on an empty cache %#x, whole-region loop %#x", g.step, got, want)
		}
		g.seen["empty cache"]++
	}
	if g.pool.Gen() == mark {
		hashed := g.c.hashed
		if got := snapFPCached(g.structure, snap, g.pool, mark, &g.c); got != want || g.c.hashed != hashed {
			g.tb.Fatalf("step %d: a repeated call gave %#x and hashed %d bytes, want %#x and none",
				g.step, got, g.c.hashed-hashed, want)
		}
	} else {
		g.seen["pool changed since the capture"]++
	}
}

// finish syncs once more and checks the fingerprint on an empty cache after
// every warm call the run made.
func (g *fpRig) finish() {
	g.tb.Helper()
	g.sync()
	var cold fpCache
	want := refSnapFP(g.structure, g.cs.Prev())
	if got := snapFPCached(g.structure, g.cs.Prev(), g.pool, g.cs.Watermark(), &cold); got != want {
		g.tb.Fatalf("step %d: fingerprint on an empty cache at the end %#x, whole-region loop %#x", g.step, got, want)
	}
}

// fpRigLayouts are the region sizes the seeded runs use: sizes on and off
// the page grid, sub-page and empty regions, and all-zero ones.
var fpRigLayouts = [][]int{
	{5 * gpumem.PageSize, 3*gpumem.PageSize + 100, gpumem.PageSize / 2, 2 * gpumem.PageSize},
	{7*gpumem.PageSize + 9, 4 * gpumem.PageSize, 100, gpumem.PageSize, 0, 3 * gpumem.PageSize},
}

// TestMetaFPMatchesWhole runs seeded operation sequences through fpRig:
// writes at a region's start, middle and end, A→B→A and identical
// rewrites, ZeroRange, FreePages and re-allocation, a region that moves and
// one that changes size, and calls with the pool changed since the capture.
// Every fingerprint, warm or on an empty cache, must equal the whole-region
// loop's, and the runs must cover each of those inputs.
func TestMetaFPMatchesWhole(t *testing.T) {
	seen := map[string]int{}
	for li, layout := range fpRigLayouts {
		for seed := int64(1); seed <= 4; seed++ {
			g := newFPRig(t, layout)
			rnd := rand.New(rand.NewSource(seed*10 + int64(li)))
			for i := 0; i < 200; i++ {
				op := byte(rnd.Intn(11))
				if i == 0 {
					op = 8
				}
				g.do(op, byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)))
			}
			g.finish()
			g.release()
			for k, n := range g.seen {
				seen[k] += n
			}
		}
	}
	for _, k := range []string{"write at start", "write at middle", "write at end", "A→B→A",
		"identical rewrite", "ZeroRange", "FreePages", "moved region", "resized region",
		"pool changed since the capture", "empty cache", "all-zero region", "page of zeros"} {
		if seen[k] == 0 {
			t.Errorf("no run covered: %s", k)
		}
	}
	t.Logf("covered: %v", seen)
}

// FuzzMetaFPMatchesWhole runs fuzzer-chosen layouts and operation sequences
// through fpRig. layout gives up to five region sizes, two bytes each,
// below four pages; ops is read four bytes at a time, an operation and its
// three arguments (fpRig.do).
func FuzzMetaFPMatchesWhole(f *testing.F) {
	for _, s := range metaFPFuzzSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, layout, ops []byte) {
		var sizes []int
		for i := 0; i+1 < len(layout) && i < 10; i += 2 {
			sizes = append(sizes, int(binary.LittleEndian.Uint16(layout[i:]))%(4*gpumem.PageSize))
		}
		if len(sizes) == 0 {
			return
		}
		g := newFPRig(t, sizes)
		defer g.release()
		for i := 0; i+3 < len(ops) && i < 4*128; i += 4 {
			g.do(ops[i], ops[i+1], ops[i+2], ops[i+3])
		}
		g.finish()
	})
}

// metaFPFuzzSeeds returns (layout, ops) pairs: the first seeded run of each
// layout of TestMetaFPMatchesWhole, cut to the fuzz target's operation
// limit, and one short sequence per input it must cover.
func metaFPFuzzSeeds() [][2][]byte {
	sizes := func(n ...int) []byte {
		var b []byte
		for _, v := range n {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return b
	}
	small := sizes(3*gpumem.PageSize+5, 2*gpumem.PageSize, 100, 3*gpumem.PageSize)
	var out [][2][]byte
	for li, layout := range fpRigLayouts {
		rnd := rand.New(rand.NewSource(10 + int64(li)))
		var ops []byte
		for i := 0; i < 128; i++ {
			op := byte(rnd.Intn(11))
			if i == 0 {
				op = 8
			}
			ops = append(ops, op, byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)))
		}
		var lb []byte
		for _, n := range layout {
			lb = binary.LittleEndian.AppendUint16(lb, uint16(n%(4*gpumem.PageSize)))
		}
		out = append(out, [2][]byte{lb, ops})
	}
	return append(out,
		[2][]byte{small, {8, 0, 0, 0, 0, 0, 0, 9, 0, 0, 1, 9, 0, 0, 2, 9, 8, 0, 0, 0}}, // start, end, middle
		[2][]byte{small, {8, 0, 0, 0, 1, 0, 2, 7, 8, 0, 0, 0, 2, 1, 3, 3, 8, 0, 0, 0}}, // A→B→A, identical
		[2][]byte{small, {8, 0, 0, 0, 3, 0, 2, 40, 4, 1, 0, 0, 8, 0, 0, 0}},            // ZeroRange, FreePages
		[2][]byte{small, {8, 0, 0, 0, 5, 0, 0, 0, 8, 0, 0, 0, 6, 0, 0, 2, 8, 0, 0, 0}}, // moved, resized
		[2][]byte{small, {8, 0, 0, 0, 0, 0, 2, 5, 7, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0}}, // pool changed since capture
	)
}

// TestUpdateFuzzCorpus writes metaFPFuzzSeeds to testdata/fuzz when
// GRT_UPDATE_FUZZ_CORPUS is set.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Update() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.UpdateEnv)
	}
	for _, s := range metaFPFuzzSeeds() {
		if err := fuzzcorpus.WriteSeed("FuzzMetaFPMatchesWhole", s[0], s[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetaFPWorkGate bounds the bytes metaFP runs through its FNV byte loop
// in a record with a checkpoint at every job (OursMDS, seed 42). Hashing
// every written region in full at every checkpoint runs 12.3 MB through it
// for MNIST and 292 MB for VGG16; resuming each region's hash at its first
// changed page, with pages of zeros multiplied through, runs under 1 MB and
// 8 MB. Hashing the structural fingerprints at every call runs 40.6 KB and
// 1.25 MB through it; hashing each only when it changed, under 4 KB and
// 32 KB.
func TestMetaFPWorkGate(t *testing.T) {
	for _, c := range []struct {
		m                  *mlfw.Model
		limit, structLimit int64
	}{{mlfw.MNIST(), 1 << 20, 4 << 10}, {mlfw.VGG16(), 8 << 20, 32 << 10}} {
		checkpoints := 0
		res, err := Run(Config{
			Variant: OursMDS, Model: c.m, SKU: mali.G71MP8,
			Network: netsim.WiFi, SessionKey: testKey,
			ClientSeed: 42, InjectMispredictionAt: -1,
			OnCheckpoint: func(*ckpt.Checkpoint) { checkpoints++ },
		})
		if err != nil {
			t.Fatalf("record %s: %v", c.m.Name, err)
		}
		if checkpoints != res.Stats.Jobs {
			t.Fatalf("%s: %d checkpoints for %d jobs", c.m.Name, checkpoints, res.Stats.Jobs)
		}
		t.Logf("%s: %d checkpoints, %.2f MB of regions and %d bytes of structural fingerprints through the FNV byte loop",
			c.m.Name, checkpoints, float64(res.fpHashed)/1e6, res.fpStructHashed)
		if res.fpHashed > c.limit {
			t.Errorf("%s: metaFP ran %d region bytes through its FNV byte loop, limit %d", c.m.Name, res.fpHashed, c.limit)
		}
		if res.fpStructHashed > c.structLimit {
			t.Errorf("%s: metaFP ran %d structural fingerprint bytes through its FNV byte loop, limit %d",
				c.m.Name, res.fpStructHashed, c.structLimit)
		}
	}
}

// fpChain replays the cloud→client capture chain of a recording outside a
// session, the fixture of BenchmarkMetaFP. Each job boundary is a step: the
// writes that bring a pool from the metastate of the last dump to that of
// the next, page by page, and the dump's region list. advance applies one
// step and captures and commits the pool as the syncer does.
type fpChain struct {
	tb        testing.TB
	steps     []fpStep
	next      int
	poolSize  uint64
	pool      *gpumem.Pool
	cs        gpumem.CaptureState
	structure string
	c         fpCache
}

type fpStep struct {
	regions []*gpumem.Region
	writes  []fpWrite
}

type fpWrite struct {
	pa   gpumem.PA
	data []byte
}

// newFPChain records m (OursMDS, seed 42) and decodes its cloud→client
// dumps into steps: a region is written whole when it is new or moved, and
// otherwise only its PageSize spans that changed.
func newFPChain(tb testing.TB, m *mlfw.Model) *fpChain {
	res, err := Run(Config{
		Variant: OursMDS, Model: m, SKU: mali.G71MP8,
		Network: netsim.WiFi, SessionKey: testKey,
		ClientSeed: 42, InjectMispredictionAt: -1,
	})
	if err != nil {
		tb.Fatalf("record %s: %v", m.Name, err)
	}
	ch := &fpChain{tb: tb, poolSize: res.Recording.PoolSize}
	var codec gpumem.Codec
	var img, prev *gpumem.Snapshot
	for _, e := range res.Recording.Events {
		if e.Kind != trace.KDumpToClient {
			continue
		}
		if img, err = codec.Receive(e.Dump, img); err != nil {
			tb.Fatalf("dump %d: %v", len(ch.steps), err)
		}
		var st fpStep
		for i, r := range img.Regions {
			st.regions = append(st.regions, &gpumem.Region{Name: r.Name, Kind: r.Kind, VA: r.VA, PA: r.PA,
				Size: uint64(len(r.Data))})
			if prev == nil || i >= len(prev.Regions) || prev.Regions[i].PA != r.PA ||
				len(prev.Regions[i].Data) != len(r.Data) {
				st.writes = append(st.writes, fpWrite{r.PA, bytes.Clone(r.Data)})
				continue
			}
			for off := 0; off < len(r.Data); off += gpumem.PageSize {
				end := min(off+gpumem.PageSize, len(r.Data))
				if !bytes.Equal(r.Data[off:end], prev.Regions[i].Data[off:end]) {
					st.writes = append(st.writes, fpWrite{r.PA + gpumem.PA(off), bytes.Clone(r.Data[off:end])})
				}
			}
		}
		ch.steps = append(ch.steps, st)
		if prev != nil {
			prev.Release()
		}
		prev = img.Clone()
	}
	img.Release()
	prev.Release()
	ch.reset()
	return ch
}

// reset starts the chain over on a fresh pool and an empty cache.
func (ch *fpChain) reset() {
	ch.cs.Release()
	ch.pool, ch.next, ch.c = gpumem.NewPool(ch.poolSize), 0, fpCache{}
}

// advance applies the next step, captures and commits the pool, and
// reports false when the chain has ended.
func (ch *fpChain) advance() bool {
	if ch.next == len(ch.steps) {
		return false
	}
	st := &ch.steps[ch.next]
	ch.next++
	for _, w := range st.writes {
		ch.pool.Write(w.pa, w.data)
	}
	ch.cs.Commit(ch.cs.Capture(ch.pool, st.regions, nil))
	ch.structure = fingerprint(st.regions)
	return true
}

// metaFP is one direction of syncer.metaFP over the committed capture.
func (ch *fpChain) metaFP(c *fpCache) uint64 {
	return snapFPCached(ch.structure, ch.cs.Prev(), ch.pool, ch.cs.Watermark(), c)
}

// BenchmarkMetaFP times one direction of metaFP over the cloud→client
// capture chain of a real recording (OursMDS, seed 42). warm is one call
// at a job boundary with the cache the previous boundary's call left,
// cycling through the session's jobs; cold is one call at the last
// boundary on an empty cache, as the first call of an attempt and the
// resume-boundary check make. Each op is one call; the step between two
// calls is not timed.
func BenchmarkMetaFP(b *testing.B) {
	for _, m := range []*mlfw.Model{mlfw.MNIST(), mlfw.VGG16()} {
		ch := newFPChain(b, m)
		b.Run(m.Name+"/warm", func(b *testing.B) {
			ch.reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if !ch.advance() {
					ch.reset()
					ch.advance()
				}
				if ch.next == 1 { // the session's first call fills the cache
					ch.metaFP(&ch.c)
					ch.advance()
				}
				b.StartTimer()
				ch.metaFP(&ch.c)
			}
		})
		b.Run(m.Name+"/cold", func(b *testing.B) {
			ch.reset()
			for ch.advance() {
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var c fpCache
				ch.metaFP(&c)
			}
		})
		ch.cs.Release()
	}
}
