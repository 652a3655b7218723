package gpumem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestDirtyParallelEncodeEquivalence is the memsync encoder's property test:
// across randomized workloads and GOMAXPROCS settings, the fast path —
// dirty-aware CaptureState capture (clean regions aliased, not copied)
// followed by the chunked encoder (page-wise delta, worker-pool raw
// assembly) — must produce wire bytes identical to the reference path of a
// full fresh capture encoded by refEncode, which XORs whole regions and
// codes the concatenation. Any divergence, however subtle (a zero run split
// differently, a stale aliased buffer, an unequal page sent as zeros, a
// scheduling-dependent concatenation order), fails the byte comparison.
func TestDirtyParallelEncodeEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, 4, runtime.NumCPU()}

	for trial := 0; trial < 3; trial++ {
		rnd := rand.New(rand.NewSource(int64(7 + trial)))
		// Two structurally identical pools receiving identical mutations:
		// poolRef feeds the reference path, poolFast the dirty-tracked one.
		poolRef, regionsRef := randomFootprint(t, rnd)
		poolFast, regionsFast := randomFootprint(t, rand.New(rand.NewSource(int64(7+trial))))

		var cs CaptureState
		var refPrev *Snapshot
		for step := 0; step < 6; step++ {
			mutations := randomMutations(rnd, regionsRef)
			applyMutations(poolRef, mutations)
			applyMutations(poolFast, mutations)

			// Reference: full capture, whole-region encode.
			refSnap := Capture(poolRef, regionsRef, nil)
			refDelta := refEncode(refSnap, refPrev, EncodeOptions{Delta: refPrev != nil, Compress: true})
			refRaw := refEncode(refSnap, nil, EncodeOptions{})

			// Fast path: dirty capture and encode at a randomized worker
			// count.
			runtime.GOMAXPROCS(procs[rnd.Intn(len(procs))])
			snap := cs.Capture(poolFast, regionsFast, nil)
			prev := cs.Prev()
			if (prev != nil) != (refPrev != nil) {
				t.Fatalf("trial %d step %d: prev state diverged", trial, step)
			}
			wire, err := snap.Encode(prev, EncodeOptions{Delta: prev != nil, Compress: true})
			if err != nil {
				t.Fatalf("trial %d step %d: fast encode: %v", trial, step, err)
			}
			raw, err := snap.Encode(nil, EncodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire, refDelta) {
				t.Fatalf("trial %d step %d: delta+compress wire differs (%d vs %d bytes)",
					trial, step, len(wire), len(refDelta))
			}
			if !bytes.Equal(raw, refRaw) {
				t.Fatalf("trial %d step %d: raw wire differs", trial, step)
			}

			// The decoded fast wire must reproduce the reference contents.
			dec, err := Decode(wire, prev)
			if err != nil {
				t.Fatalf("trial %d step %d: decode: %v", trial, step, err)
			}
			for i := range dec.Regions {
				if !bytes.Equal(dec.Regions[i].Data, refSnap.Regions[i].Data) {
					t.Fatalf("trial %d step %d: region %q content diverged", trial, step, dec.Regions[i].Name)
				}
			}
			dec.Release()
			cs.Commit(snap)
			refPrev = refSnap
		}
	}
}

// randomFootprint builds a pool with a randomized region layout: mixed
// kinds, sizes from sub-page to multi-megabyte (a region spans from part of
// one page to hundreds of pages), contents from dense-random to all-zero.
func randomFootprint(t *testing.T, rnd *rand.Rand) (*Pool, []*Region) {
	t.Helper()
	pool := NewPool(256 << 20)
	kinds := []RegionKind{KindCommands, KindShader, KindJobDesc, KindWeights, KindScratch}
	n := 6 + rnd.Intn(10)
	var regions []*Region
	for i := 0; i < n; i++ {
		size := uint64(512 + rnd.Intn(2<<20))
		pa, err := pool.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		kind := kinds[rnd.Intn(len(kinds))]
		r := &Region{Name: fmt.Sprintf("r%d", i), Kind: kind, PA: pa,
			VA: VA(0x2000_0000 + uint64(pa)), Size: size, Flags: DefaultFlags(kind)}
		regions = append(regions, r)
		switch rnd.Intn(3) {
		case 0: // dense random
			buf := make([]byte, size)
			rnd.Read(buf)
			pool.Write(pa, buf)
		case 1: // sparse: a few random spans
			for k := 0; k < 3; k++ {
				span := make([]byte, 1+rnd.Intn(int(size)))
				rnd.Read(span)
				pool.Write(pa+PA(rnd.Intn(int(size)-len(span)+1)), span)
			}
		case 2: // left zero (dry-run program data)
		}
	}
	return pool, regions
}

type mutation struct {
	pa   PA
	data []byte // nil means ZeroRange of length n
	n    uint64
}

// randomMutations builds a batch of writes/zeroes/no-op rewrites targeting
// random offsets of random regions. The same batch is applied to both pools.
func randomMutations(rnd *rand.Rand, regions []*Region) []mutation {
	var muts []mutation
	for i, count := 0, 1+rnd.Intn(6); i < count; i++ {
		r := regions[rnd.Intn(len(regions))]
		n := uint64(1 + rnd.Intn(int(r.Size)))
		off := PA(rnd.Intn(int(r.Size-n) + 1))
		switch rnd.Intn(4) {
		case 0: // random content
			buf := make([]byte, n)
			rnd.Read(buf)
			muts = append(muts, mutation{pa: r.PA + off, data: buf})
		case 1: // all-zero write (content-equal on zero pages: must not dirty)
			muts = append(muts, mutation{pa: r.PA + off, data: make([]byte, n)})
		case 2: // explicit zero range
			muts = append(muts, mutation{pa: r.PA + off, n: n})
		case 3: // tiny word write, the shim's common case
			buf := make([]byte, 4)
			rnd.Read(buf)
			muts = append(muts, mutation{pa: r.PA + off&^3, data: buf})
		}
	}
	return muts
}

func applyMutations(pool *Pool, muts []mutation) {
	for _, m := range muts {
		if m.data != nil {
			pool.Write(m.pa, m.data)
		} else {
			pool.ZeroRange(m.pa, m.n)
		}
	}
}
