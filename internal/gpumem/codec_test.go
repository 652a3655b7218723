package gpumem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"gpurelay/internal/wire"
)

// codecRun drives one Codec through a sequence of dumps and checks every
// step against the stateless Snapshot.Encode and DecodeLimited: the same wire
// bytes, the same decoded regions, the same error text. It also checks when
// the Codec may skip the range coder, and what it does with the RLE buffers
// it keeps: a kept buffer is never in the recycler and, when recycled is
// set, a replaced one is. That second check needs the garbage collector off
// and the race detector too.
type codecRun struct {
	tb       testing.TB
	c        *Codec
	lim      wire.DecodeLimits
	recycled bool
}

// anyRuns is a range-coder run count codecRun does not check.
const anyRuns = -1

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pooled reports whether b's backing array sits in the recycler. It drains
// b's size class and puts every buffer back, so it must run with the garbage
// collector off (a collection may drop pooled buffers) and on one goroutine.
func pooled(b []byte) bool {
	if cap(b) < 1<<bufMinShift {
		return false
	}
	p := &bufClasses[bufClass(cap(b))]
	var drained []any
	found := false
	for v := p.Get(); v != nil; v = p.Get() {
		if q := *v.(*[]byte); cap(q) > 0 && &q[:1][0] == &b[:1][0] {
			found = true
		}
		drained = append(drained, v)
	}
	for _, v := range drained {
		p.Put(v)
	}
	return found
}

// aliases reports whether b shares its backing array with one of s's regions.
func aliases(s *Snapshot, b []byte) bool {
	for _, r := range s.Regions {
		if cap(r.Data) > 0 && cap(b) > 0 && &r.Data[:1][0] == &b[:1][0] {
			return true
		}
	}
	return false
}

// replaced reports whether the Codec dropped a kept buffer the recycler
// accepts.
func replaced(old, now []byte) bool {
	return cap(old) >= 1<<bufMinShift && (cap(now) == 0 || &old[:1][0] != &now[:1][0])
}

func (r *codecRun) checkHeld(step string) {
	r.tb.Helper()
	if pooled(r.c.encRLE) || pooled(r.c.decRLE) {
		r.tb.Fatalf("%s: a kept RLE stream is in the recycler", step)
	}
}

// encode encodes cur against prev through the Codec and statelessly. runs
// is how often the Codec must run the range coder.
func (r *codecRun) encode(step string, cur, prev *Snapshot, opts EncodeOptions, runs int) []byte {
	r.tb.Helper()
	old, codes := r.c.encRLE, r.c.codes
	got, gerr := r.c.Encode(cur, prev, opts)
	if ran := r.c.codes - codes; runs != anyRuns && ran != runs {
		r.tb.Fatalf("%s: encode ran the range coder %d times, want %d", step, ran, runs)
	}
	r.checkHeld(step)
	if r.recycled && replaced(old, r.c.encRLE) && !pooled(old) {
		r.tb.Fatalf("%s: the replaced encoder stream was not recycled", step)
	}
	want, werr := cur.Encode(prev, opts)
	if errText(gerr) != errText(werr) || !bytes.Equal(got, want) {
		r.tb.Fatalf("%s: codec encode gave %d bytes, %v; stateless %d bytes, %v", step, len(got), gerr, len(want), werr)
	}
	return got
}

// decode decodes data against prev through the Codec and statelessly, and
// returns the Codec's error. runs is how often the Codec must run the range
// decoder.
func (r *codecRun) decode(step string, data []byte, prev *Snapshot, runs int) error {
	r.tb.Helper()
	old, decodes := r.c.decRLE, r.c.decodes
	got, gerr := decodeLimited(data, prev, r.lim, r.c)
	if ran := r.c.decodes - decodes; runs != anyRuns && ran != runs {
		r.tb.Fatalf("%s: decode ran the range decoder %d times, want %d", step, ran, runs)
	}
	r.checkHeld(step)
	// The only recycler reads after the Codec lets go of a stream are the
	// region buffers of the snapshot it decodes.
	if r.recycled && replaced(old, r.c.decRLE) && !pooled(old) && (gerr != nil || !aliases(got, old)) {
		r.tb.Fatalf("%s: the replaced decoder stream was not recycled", step)
	}
	want, werr := DecodeLimited(data, prev, r.lim)
	if errText(gerr) != errText(werr) {
		r.tb.Fatalf("%s: codec decode error %q, stateless %q", step, errText(gerr), errText(werr))
	}
	if gerr == nil {
		if d := snapshotDiff(got, want); d != "" {
			r.tb.Fatalf("%s: codec decode differs from stateless: %s", step, d)
		}
		got.Release()
		want.Release()
	}
	return gerr
}

// snapshotDiff describes the first difference between two snapshots, or
// returns "".
func snapshotDiff(a, b *Snapshot) string {
	if len(a.Regions) != len(b.Regions) {
		return fmt.Sprintf("%d regions vs %d", len(a.Regions), len(b.Regions))
	}
	for i := range a.Regions {
		x, y := &a.Regions[i], &b.Regions[i]
		if x.Name != y.Name || x.Kind != y.Kind || x.VA != y.VA || x.PA != y.PA || !bytes.Equal(x.Data, y.Data) {
			return fmt.Sprintf("region %d (%q, %d bytes vs %q, %d bytes)", i, x.Name, len(x.Data), y.Name, len(y.Data))
		}
	}
	return ""
}

// redeclare returns wire with its header rewritten for s's regions, each
// region's length changed by grow[i], and the body kept as it was.
func redeclare(wire []byte, s *Snapshot, grow map[int]int) []byte {
	h := &Snapshot{Regions: make([]RegionSnapshot, len(s.Regions))}
	for i, r := range s.Regions {
		r.Data = make([]byte, len(r.Data)+grow[i])
		h.Regions[i] = r
	}
	body := wire[s.headerLen():] // body length and body
	out := make([]byte, h.headerLen(), h.headerLen()+len(body))
	h.putHeader(out, wire[4])
	return append(out, body...)
}

// xorMask XORs one seeded byte pattern into every region of s.
func xorMask(s *Snapshot, rnd *rand.Rand) {
	for _, r := range s.Regions {
		m := byte(1 + rnd.Intn(255))
		for i := range r.Data {
			r.Data[i] ^= m + byte(i)
		}
	}
}

// TestCodecMatchesStateless drives seeded dump sequences through one Codec
// on the MNIST and VGG16 footprints' metastate and most-written scratch
// region, as the syncer does at job boundaries, and checks each step against
// the stateless calls.
func TestCodecMatchesStateless(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	delta := EncodeOptions{Delta: true, Compress: true}
	full := EncodeOptions{Compress: true}
	for _, spec := range FootprintSpecs() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Name, seed), func(t *testing.T) {
				fp := buildFootprint(t, spec)
				scratch := fp.Regions[len(fp.Regions)-1] // the one DirtySome writes
				filter := func(r *Region) bool { return r.Kind.Metastate() || r == scratch }
				rnd := rand.New(rand.NewSource(seed))
				// Under -race the recycler may drop a buffer it was given, so
				// only a build without it can see every replaced stream there.
				run := &codecRun{tb: t, c: &Codec{}, lim: wire.DefaultLimits(), recycled: !raceDetectorEnabled}

				base := Capture(fp.Pool, fp.Regions, filter)
				last := len(base.Regions) - 1 // the scratch region
				dump := run.encode("full dump", base, nil, full, 1)
				run.decode("full dump", dump, nil, 1)
				run.encode("full echo", base.Clone(), nil, full, 0)
				run.decode("full echo", dump, nil, 0)
				// The kept stream depends on the body and the total only: a
				// header that splits the same total differently reuses it.
				run.decode("full dump, regions split differently", redeclare(dump, base, map[int]int{0: 1, 1: -1}), nil, 0)

				var cur *Snapshot
				for job := 1; job <= 3; job++ {
					fp.DirtySome(uint64(seed)*100 + uint64(job))
					cur = Capture(fp.Pool, fp.Regions, filter)
					step := func(s string) string { return fmt.Sprintf("job %d: %s", job, s) }

					dump = run.encode(step("delta"), cur, base, delta, 1)
					run.decode(step("delta"), dump, base, 1)
					run.encode(step("delta echo"), cur.Clone(), base.Clone(), delta, 0)
					run.decode(step("delta echo"), dump, base.Clone(), 0)

					changed := cur.Clone()
					k := rnd.Intn(len(changed.Regions))
					changed.Regions[k].Data[rnd.Intn(len(changed.Regions[k].Data))] ^= byte(1 + rnd.Intn(255))
					dump = run.encode(step("one-byte change in the delta"), changed, base, delta, 1)
					// The Codec keeps its own copy of a body: a caller may
					// reuse the buffer it decoded from (corrupted below).
					buf := append([]byte(nil), dump...)
					run.decode(step("one-byte change in the delta"), buf, base, 1)

					otherBase, otherCur := base.Clone(), changed.Clone()
					xorMask(otherBase, rand.New(rand.NewSource(seed+int64(job))))
					xorMask(otherCur, rand.New(rand.NewSource(seed+int64(job))))
					if w := run.encode(step("same delta, other base"), otherCur, otherBase, delta, 0); !bytes.Equal(w, dump) {
						t.Fatalf("%s: the same delta on another base changed the wire", step("same delta, other base"))
					}
					run.decode(step("same delta, other base"), dump, otherBase, 0)

					run.decode(step("same body, larger total"), redeclare(dump, changed, map[int]int{last: 1}), base, 1)
					run.decode(step("same body, smaller total"), redeclare(dump, changed, map[int]int{last: -1}), base, 1)
					run.decode(step("cached body again"), dump, base, 0)

					body := changed.headerLen() + 4
					buf[body+rnd.Intn(len(buf)-body)] ^= byte(1 + rnd.Intn(255))
					err := run.decode(step("corrupt body after a cached success"), buf, base, 1)
					// A failed decode leaves the kept stream in place.
					again := 0
					if err == nil {
						again = 1
					}
					run.decode(step("cached body after the corrupt one"), dump, base, again)

					base = cur
				}
				dump = run.encode("full dump after a delta", cur, nil, full, 1)
				run.decode("full dump after a delta", dump, nil, 1)
			})
		}
	}
}

// FuzzCodecMatchesStateless runs fuzzer-chosen dump sequences through one
// Codec and the stateless calls on the two-region fuzz snapshot. ops is read
// two bytes at a time, an operation and its argument; dump is a wire dump of
// the fuzzer's own that one operation decodes.
func FuzzCodecMatchesStateless(f *testing.F) {
	for _, s := range codecFuzzSeeds(f) {
		f.Add(s[0], s[1])
	}
	delta := EncodeOptions{Delta: true, Compress: true}
	full := EncodeOptions{Compress: true}
	f.Fuzz(func(t *testing.T, ops, dump []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		run := &codecRun{tb: t, c: &Codec{}, lim: snapFuzzLimits}
		prev, cur := fuzzSnapshot(), fuzzSnapshot()
		var last []byte // the last wire encoded
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, int(ops[i+1])
			step := fmt.Sprintf("op %d (%d, %d)", i/2, op, arg)
			switch op {
			case 0: // change one byte of the current snapshot
				r := &cur.Regions[arg%len(cur.Regions)]
				r.Data[arg*37%len(r.Data)] ^= byte(arg | 1)
			case 1: // a delta dump and its self-check decode, then their echo
				last = run.encode(step, cur, prev, delta, anyRuns)
				run.decode(step, last, prev, anyRuns)
				run.encode(step+" echo", cur.Clone(), prev.Clone(), delta, 0)
				run.decode(step+" echo", last, prev.Clone(), 0)
			case 2: // a full dump and its self-check decode
				last = run.encode(step, cur, nil, full, anyRuns)
				run.decode(step, last, nil, anyRuns)
			case 3: // the job boundary: the current snapshot becomes the base
				prev = cur.Clone()
			case 4: // the last wire with one byte of its body changed
				if last != nil {
					bad := append([]byte(nil), last...)
					body := cur.headerLen() + 4
					bad[body+arg%(len(bad)-body)] ^= byte(arg>>4 | 1)
					run.decode(step, bad, prev, anyRuns)
				}
			case 5: // the fuzzer's dump, as a delta and as a full dump
				run.decode(step, dump, prev, anyRuns)
				run.decode(step+" without base", dump, nil, anyRuns)
			case 6: // the last wire declaring a region one byte longer or shorter, or the same
				if last != nil {
					grow := map[int]int{arg % len(cur.Regions): arg/2%3 - 1}
					run.decode(step, redeclare(last, cur, grow), prev, anyRuns)
				}
			}
		}
	})
}

// codecFuzzSeeds returns (ops, dump) pairs covering every operation of
// FuzzCodecMatchesStateless.
func codecFuzzSeeds(tb testing.TB) [][2][]byte {
	dumps := snapFuzzSeeds(tb)
	return [][2][]byte{
		{{1, 0, 0, 5, 1, 0, 3, 0, 0, 9, 1, 0}, nil},
		{{2, 0, 2, 0, 0, 3, 2, 0, 1, 0}, nil},
		{{1, 0, 4, 7, 4, 200, 1, 0, 4, 64}, nil},
		{{2, 0, 6, 0, 6, 5, 1, 0, 6, 2, 6, 4}, nil},
		{{5, 0, 1, 0, 5, 0, 3, 0, 1, 0}, dumps[2]},
		{{5, 0, 2, 0, 5, 0}, dumps[1]},
		{{1, 0, 5, 0, 1, 0}, dumps[6]},
	}
}
