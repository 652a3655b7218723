package gpumem

import (
	"fmt"
	"runtime/debug"
	"testing"
)

func buildFootprint(tb testing.TB, spec FootprintSpec) *Footprint {
	tb.Helper()
	fp, err := BuildFootprint(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return fp
}

func BenchmarkSnapshotEncode(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			snap := Capture(fp.Pool, fp.Regions, nil)
			b.SetBytes(snap.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.Encode(nil, EncodeOptions{Compress: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotEncodeDelta(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			prev := Capture(fp.Pool, fp.Regions, nil)
			fp.DirtySome(1)
			cur := Capture(fp.Pool, fp.Regions, nil)
			b.SetBytes(cur.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cur.Encode(prev, EncodeOptions{Delta: true, Compress: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			snap := Capture(fp.Pool, fp.Regions, nil)
			wire, err := snap.Encode(nil, EncodeOptions{Compress: true})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(snap.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(wire, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCaptureFull(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp.DirtySome(uint64(i))
				snap := Capture(fp.Pool, fp.Regions, nil)
				_ = snap
			}
		})
	}
}

// BenchmarkCaptureDirty measures the steady-state synchronization cycle the
// record loop actually runs: a few small writes land between jobs, then a
// dirty-aware capture aliases every clean region, the delta encoder turns the
// aliased regions into zero runs, and the baseline advances. This is the
// number the tentpole optimizes.
func BenchmarkCaptureDirty(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			fp := buildFootprint(b, spec)
			var cs CaptureState
			base := cs.Capture(fp.Pool, fp.Regions, nil)
			cs.Commit(base)
			b.SetBytes(base.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp.DirtySome(uint64(i))
				snap := cs.Capture(fp.Pool, fp.Regions, nil)
				if _, err := snap.Encode(cs.Prev(), EncodeOptions{Delta: true, Compress: true}); err != nil {
					b.Fatal(err)
				}
				cs.Commit(snap)
			}
		})
	}
}

// BenchmarkSnapshotSyncPair is one job's memsync exchange on a footprint's
// metastate as the recorder codes it: the cloud→client delta dump, received
// onto the client's image, then the client→cloud dump, byte-identical to the
// first, received onto the cloud's image. codec runs the four steps through
// one Codec and Codec.Receive, which range-codes and range-decodes the
// echo's stream once and patches each image in place; stateless runs them
// through Snapshot.Encode and Decode, which copies the base. Two traffic
// shapes:
//
//   - <footprint>: a job rewrites its share of every metastate region (the
//     regions are sized from the job count);
//   - <footprint>-cmd-<k>of<n>: a job rewrites k pages of one n-page
//     command-stream region, as a recorded job does (MNIST 4 of 66 pages,
//     VGG16 5 of 370).
//
// The rewritten bytes cycle through three contents, so every job's dump
// differs from the one before it (and is new to the Codec), and the images
// always hold the sender's delta base. The command-stream shapes also have a
// cycle row: the recorder's whole exchange (syncCycle), capture and restore
// included, with the job's page writes.
func BenchmarkSnapshotSyncPair(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		fp := buildFootprint(b, spec)
		var regions []*Region
		for _, r := range fp.Regions {
			if r.Kind.Metastate() {
				regions = append(regions, r)
			}
		}
		benchSyncPair(b, spec.Name, fp.Pool, regions, func(rng *xorshift64) {
			for _, r := range regions {
				share := make([]byte, r.Size/uint64(spec.Kernels))
				rng.fill(share)
				fp.Pool.Write(r.PA, share)
			}
		})
	}
	for _, row := range []struct {
		name         string
		pages, dirty int
	}{{"MNIST", 66, 4}, {"VGG16", 370, 5}} {
		pool, cmds, job := cmdStream(row.pages, row.dirty)
		name := fmt.Sprintf("%s-cmd-%dof%d", row.name, row.dirty, row.pages)
		benchSyncPair(b, name, pool, []*Region{cmds}, job)
		b.Run(name+"/cycle", func(b *testing.B) {
			y := newSyncCycle(pool, []*Region{cmds})
			y.exchange(b) // the first dumps are full ones
			b.SetBytes(2 * int64(cmds.Size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := xorshift64(0x5EED + uint64(i%3))
				job(&rng)
				y.exchange(b)
			}
			b.StopTimer()
			y.release(b)
		})
	}
}

// cmdStream lays out one dense command-stream region of the given number of
// pages, and returns the job that rewrites dirty of its pages, spread evenly,
// from rng.
func cmdStream(pages, dirty int) (*Pool, *Region, func(rng *xorshift64)) {
	pool := NewPool(uint64(pages+1) * PageSize)
	cmds := &Region{Name: "cmds", Kind: KindCommands, VA: 0x10000000, Size: uint64(pages) * PageSize}
	dense := make([]byte, cmds.Size)
	rng := xorshift64(0xC0DE)
	rng.fill(dense)
	pool.Write(cmds.PA, dense)
	page := make([]byte, PageSize)
	return pool, cmds, func(rng *xorshift64) {
		for k := 0; k < dirty; k++ {
			rng.fill(page)
			pool.Write(cmds.PA+PA(k*pages/dirty*PageSize), page)
		}
	}
}

// syncCycle is the recorder's memsync loop (record.syncer) between two
// pools that hold the same regions, the cloud's and the client's: at each
// job boundary a side captures its regions (CaptureState.Capture), codes the
// capture against its last one (Codec.Encode), the other side receives the
// dump onto its image (Codec.Receive) and restores the image into its pool,
// and the capture is committed; then the other side sends its dump back.
type syncCycle struct {
	pools   [2]*Pool
	regions []*Region
	caps    [2]CaptureState // by sending side
	imgs    [2]*Snapshot    // by receiving side
	c       Codec
}

// newSyncCycle starts a cycle between near and an empty pool of its size.
func newSyncCycle(near *Pool, regions []*Region) *syncCycle {
	return &syncCycle{pools: [2]*Pool{near, NewPool(near.Size())}, regions: regions}
}

// exchange runs one job boundary: near's dump to the far side, and the far
// side's dump back.
func (y *syncCycle) exchange(tb testing.TB) {
	for from, to := range []int{1, 0} {
		cs := &y.caps[from]
		snap := cs.Capture(y.pools[from], y.regions, nil)
		prev := cs.Prev()
		wire, err := y.c.Encode(snap, prev, EncodeOptions{Delta: prev != nil, Compress: true})
		if err != nil {
			tb.Fatal(err)
		}
		if y.imgs[to], err = y.c.Receive(wire, y.imgs[to]); err != nil {
			tb.Fatal(err)
		}
		y.imgs[to].Restore(y.pools[to])
		cs.Commit(snap)
	}
}

// release waits for the codec's self-check and recycles the images and
// both capture chains.
func (y *syncCycle) release(tb testing.TB) {
	if err := y.c.Settle(); err != nil {
		tb.Fatal(err)
	}
	for _, img := range y.imgs {
		if img != nil {
			img.Release()
		}
	}
	y.caps[0].Release()
	y.caps[1].Release()
}

// benchSyncPair runs the codec and stateless rows of one traffic shape on
// regions of pool. job rewrites the bytes a job rewrites, from rng.
func benchSyncPair(b *testing.B, name string, pool *Pool, regions []*Region, job func(rng *xorshift64)) {
	opts := EncodeOptions{Delta: true, Compress: true}
	var states [3]*Snapshot
	for j := range states {
		rng := xorshift64(0x5EED + uint64(j))
		job(&rng)
		states[j] = Capture(pool, regions, nil)
	}
	for _, mode := range []string{"codec", "stateless"} {
		b.Run(name+"/"+mode, func(b *testing.B) {
			c := &Codec{}
			// The client's and the cloud's images, both at states[0].
			imgs := [2]*Snapshot{states[0].Clone(), states[0].Clone()}
			b.SetBytes(2 * states[0].RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prev, cur := states[i%3], states[(i+1)%3]
				for side := range imgs {
					if mode == "stateless" {
						wire, err := cur.Encode(prev, opts)
						if err != nil {
							b.Fatal(err)
						}
						s, err := Decode(wire, prev)
						if err != nil {
							b.Fatal(err)
						}
						s.Release()
						continue
					}
					wire, err := c.Encode(cur, prev, opts)
					if err != nil {
						b.Fatal(err)
					}
					if imgs[side], err = c.Receive(wire, imgs[side]); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := c.Settle(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestSnapshotEncodeAllocBudget is the CI allocation gate: encoding a warm
// MNIST snapshot must stay within a small, committed allocs/op budget, in
// full and as a delta in which a few pages changed, and so must one warm
// steady-state job boundary of the recorder's memsync loop (syncCycle), in
// which a job rewrites 4 of 66 command-stream pages. The encode budgets have
// headroom over the measured values (~5 full, ~8 delta) but fail loudly if
// buffer recycling regresses back to per-call allocation (the original
// encoder sat at several hundred) or the delta encoder stops recycling its
// page buffers. The cycle's budget is its measured count plus one, with the
// garbage collector off so the recycler keeps what it is given: a page list
// or a region buffer that each capture allocates adds two.
func TestSnapshotEncodeAllocBudget(t *testing.T) {
	fp := buildFootprint(t, MNISTFootprint)
	prev := Capture(fp.Pool, fp.Regions, nil)
	fp.DirtySome(1)
	fp.DirtySome(2)
	cur := Capture(fp.Pool, fp.Regions, nil)
	for _, row := range []struct {
		name   string
		base   *Snapshot
		opts   EncodeOptions
		budget float64
	}{
		{"full", nil, EncodeOptions{Compress: true}, 24},
		{"delta", prev, EncodeOptions{Delta: true, Compress: true}, 32},
	} {
		// Warm the buffer recycler so the measurement sees the steady state.
		if _, err := cur.Encode(row.base, row.opts); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := cur.Encode(row.base, row.opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op", row.name, avg)
		if avg > row.budget {
			t.Fatalf("Snapshot.Encode (%s) allocates %.1f objects/op, budget is %.0f", row.name, avg, row.budget)
		}
	}

	if raceDetectorEnabled {
		t.Log("cycle: skipped, the race detector makes the recycler drop buffers")
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pool, cmds, job := cmdStream(66, 4)
	y := newSyncCycle(pool, []*Region{cmds})
	defer y.release(t)
	i := 0
	cycle := func() {
		rng := xorshift64(0x5EED + uint64(i%3))
		job(&rng)
		y.exchange(t)
		i++
	}
	for i < 4 {
		cycle()
	}
	const budget = 35
	avg := testing.AllocsPerRun(10, cycle)
	t.Logf("cycle: %.1f allocs/op", avg)
	if avg > budget {
		t.Fatalf("a warm memsync cycle allocates %.1f objects/op, budget is %d", avg, budget)
	}
}
