package gpumem

import (
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
// metastate as the recorder codes it: the cloud→client delta dump and its
// self-check decode, then the client→cloud dump, byte-identical to the first,
// and its decode. codec runs the four steps through one Codec, which
// range-codes and range-decodes the echo's stream once; stateless runs them
// through Snapshot.Encode and Decode. A job rewrites its share of every
// metastate region (the regions are sized from the job count). Iterations
// alternate between two jobs, so each iteration's first dump is new to the
// Codec.
func BenchmarkSnapshotSyncPair(b *testing.B) {
	opts := EncodeOptions{Delta: true, Compress: true}
	for _, spec := range FootprintSpecs() {
		fp := buildFootprint(b, spec)
		prev := Capture(fp.Pool, fp.Regions, MetastateOnly)
		var jobs [2]*Snapshot
		for j := range jobs {
			rng := xorshift64(0x5EED + uint64(j))
			for _, r := range fp.Regions {
				if r.Kind.Metastate() {
					share := make([]byte, r.Size/uint64(spec.Kernels))
					rng.fill(share)
					fp.Pool.Write(r.PA+PA(j*len(share)), share)
				}
			}
			jobs[j] = Capture(fp.Pool, fp.Regions, MetastateOnly)
		}
		for _, mode := range []string{"codec", "stateless"} {
			b.Run(spec.Name+"/"+mode, func(b *testing.B) {
				enc := func(s *Snapshot) ([]byte, error) { return s.Encode(prev, opts) }
				dec := func(wire []byte) (*Snapshot, error) { return Decode(wire, prev) }
				if mode == "codec" {
					c := &Codec{}
					enc = func(s *Snapshot) ([]byte, error) { return c.Encode(s, prev, opts) }
					dec = func(wire []byte) (*Snapshot, error) { return c.Decode(wire, prev) }
				}
				b.SetBytes(2 * prev.RawBytes())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for echo := 0; echo < 2; echo++ {
						wire, err := enc(jobs[i%2])
						if err != nil {
							b.Fatal(err)
						}
						s, err := dec(wire)
						if err != nil {
							b.Fatal(err)
						}
						s.Release()
					}
				}
			})
		}
	}
}

// TestSnapshotEncodeAllocBudget is the CI allocation gate: encoding a warm
// MNIST snapshot must stay within a small, committed allocs/op budget. The
// budget has headroom over the measured value (~7) but fails loudly if
// buffer recycling regresses back to per-call allocation (the original
// encoder sat at several hundred).
func TestSnapshotEncodeAllocBudget(t *testing.T) {
	const allocBudget = 24
	fp := buildFootprint(t, MNISTFootprint)
	snap := Capture(fp.Pool, fp.Regions, nil)
	// Warm the buffer recycler so the measurement sees the steady state.
	if _, err := snap.Encode(nil, EncodeOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := snap.Encode(nil, EncodeOptions{Compress: true}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudget {
		t.Fatalf("Snapshot.Encode allocates %.1f objects/op, budget is %d", avg, allocBudget)
	}
}
