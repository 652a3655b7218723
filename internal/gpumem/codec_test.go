package gpumem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"gpurelay/internal/wire"
)

// codecRun drives one Codec through a sequence of dumps and checks every
// step against the stateless Snapshot.Encode and DecodeLimited: the same wire
// bytes, the same decoded regions, the same error text. Dumps are received,
// through Codec.receive, onto img, one receiving side's image. It also checks
// when the Codec may skip the range coder, and what it does with the RLE
// buffers it keeps: a kept buffer is never in the recycler and, when
// recycled is set, a replaced one is. That second check needs the garbage
// collector and the race detector off, and one P (see pooled).
type codecRun struct {
	tb       testing.TB
	c        *Codec
	lim      wire.DecodeLimits
	recycled bool
	img      *Snapshot
	// chain forbids resetting img: every dump must find the image at the
	// sender's base, as one receiver of a session's chain does.
	chain bool
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
// collector off (a collection may drop pooled buffers) and on one P: a
// sync.Pool's Get never reaches another P's private slot, so a buffer put
// back before the goroutine migrated would read as missing.
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

// setImage replaces the receiver's image, recycling the old one.
func (r *codecRun) setImage(img *Snapshot) {
	if r.img != nil && r.img != img {
		r.img.Release()
	}
	r.img = img
}

// decode receives data through the Codec onto the run's image and checks it
// against DecodeLimited(data, base), where base is the sender's delta base,
// and returns the Codec's error, settling the Codec after the receive. The
// image stands for a receiver whose last dump produced base: when it holds
// anything else (the sequence switched bases), it is reset to a copy of
// base first. Without a base the image stays as it is for a full dump,
// which never reads it, and is dropped for any other dump, as before a
// receiver's first. A delta patches the image in place and a full dump
// reuses it; a failed receive leaves it untouched. runs is how often the
// Codec must run the range decoder.
func (r *codecRun) decode(step string, data []byte, base *Snapshot, runs int) error {
	r.tb.Helper()
	switch {
	case base != nil:
		if d := snapshotDiff(r.img, base); d != "" {
			if r.chain {
				r.tb.Fatalf("%s: the image is not at the sender's base: %s", step, d)
			}
			r.setImage(base.Clone())
		}
	case r.chain:
	case len(data) < 5 || data[4]&1 != 0:
		r.setImage(nil)
	}
	var before *Snapshot
	if r.img != nil {
		before = r.img.Clone()
	}
	old, decodes := r.c.decRLE, r.c.decodes
	got, gerr := r.c.receive(data, r.img, r.lim)
	// The coder is lossless: every check behind a receive passes.
	if err := r.c.Settle(); err != nil {
		r.tb.Fatalf("%s: the self-check failed: %v", step, err)
	}
	if ran := r.c.decodes - decodes; runs != anyRuns && ran != runs {
		r.tb.Fatalf("%s: decode ran the range decoder %d times, want %d", step, ran, runs)
	}
	r.checkHeld(step)
	// The only recycler reads after the Codec lets go of a stream are the
	// region buffers a full dump gives the image.
	if r.recycled && replaced(old, r.c.decRLE) && !pooled(old) && (gerr != nil || !aliases(got, old)) {
		r.tb.Fatalf("%s: the replaced decoder stream was not recycled", step)
	}
	want, werr := DecodeLimited(data, base, r.lim)
	if errText(gerr) != errText(werr) {
		r.tb.Fatalf("%s: codec decode error %q, stateless %q", step, errText(gerr), errText(werr))
	}
	if gerr != nil {
		if d := snapshotDiff(r.img, before); d != "" {
			r.tb.Fatalf("%s: a failed receive changed the image: %s", step, d)
		}
	} else {
		if r.img != nil && got != r.img {
			r.tb.Fatalf("%s: the dump was not applied to the image in place", step)
		}
		if d := snapshotDiff(got, want); d != "" {
			r.tb.Fatalf("%s: codec decode differs from stateless: %s", step, d)
		}
		r.img = got
		want.Release()
	}
	if before != nil {
		before.Release()
	}
	return gerr
}

// snapshotDiff describes the first difference between two snapshots, either
// of which may be nil, or returns "".
func snapshotDiff(a, b *Snapshot) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("snapshot %v vs %v", a != nil, b != nil)
		}
		return ""
	}
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

// TestReceiverImageChain drives one session's chain of dumps through one
// Codec and two receivers that never reset their images, the client's and
// the cloud's, as the syncer does: a full dump, deltas, each echoed back
// byte-identically, a structural change to a full dump, a corrupt body, then
// the good delta and one more. Every step must give what DecodeLimited(wire,
// senderBase) gives, and the sender's snapshot; a failed step must leave the
// image as it was, and an echo must not run the range decoder.
func TestReceiverImageChain(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	delta := EncodeOptions{Delta: true, Compress: true}
	full := EncodeOptions{Compress: true}
	for _, spec := range FootprintSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			fp := buildFootprint(t, spec)
			scratch := fp.Regions[len(fp.Regions)-1]
			structural := false // the scratch region joins the dumps
			filter := func(r *Region) bool { return r.Kind.Metastate() || structural && r == scratch }
			c := &Codec{}
			client := &codecRun{tb: t, c: c, lim: wire.DefaultLimits(), recycled: !raceDetectorEnabled, chain: true}
			cloud := &codecRun{tb: t, c: c, lim: wire.DefaultLimits(), recycled: !raceDetectorEnabled, chain: true}
			var cs CaptureState
			// capture returns the sender's next snapshot and delta base: none
			// on the first dump and after a structural change.
			capture := func() (*Snapshot, *Snapshot, EncodeOptions) {
				snap := cs.Capture(fp.Pool, fp.Regions, filter)
				if base := cs.Prev(); base != nil && len(base.Regions) == len(snap.Regions) {
					return snap, base, delta
				}
				return snap, nil, full
			}
			// pair sends dump to the client and its echo to the cloud.
			pair := func(step string, snap, base *Snapshot, opts EncodeOptions, dump []byte) {
				client.decode(step, dump, base, 1)
				if w := client.encode(step+" echo", snap, base, opts, 0); !bytes.Equal(w, dump) {
					t.Fatalf("%s: the echo changed the wire", step)
				}
				cloud.decode(step+" echo", dump, base, 0)
				for _, img := range []*Snapshot{client.img, cloud.img} {
					if d := snapshotDiff(img, snap); d != "" {
						t.Fatalf("%s: an image differs from the sender's snapshot: %s", step, d)
					}
				}
				cs.Commit(snap)
			}

			snap, base, opts := capture()
			pair("full dump", snap, base, opts, client.encode("full dump", snap, base, opts, 1))
			for job := uint64(1); job <= 6; job++ {
				step := fmt.Sprintf("job %d", job)
				switch job {
				case 3:
					step += ", structural change"
					structural = true
				case 5:
					step += " after a corrupt body"
				}
				fp.DirtySome(job)
				snap, base, opts = capture()
				if (base == nil) != (job == 3) {
					t.Fatalf("%s: full dump = %v", step, base == nil)
				}
				dump := client.encode(step, snap, base, opts, 1)
				if job == 5 {
					bad := append([]byte(nil), dump...)
					body := snap.headerLen() + 4
					for k := body; ; k++ {
						if k == len(bad) {
							t.Fatalf("%s: no one-byte corruption of the body fails", step)
						}
						bad[k] ^= 0x40
						if _, err := DecodeLimited(bad, base, client.lim); err != nil {
							break
						}
						bad[k] ^= 0x40
					}
					if client.decode(step+": the corrupt body", bad, base, 1) == nil {
						t.Fatalf("%s: the corrupt body was received", step)
					}
				}
				pair(step, snap, base, opts, dump)
			}
		})
	}
}

// literalAt returns the index of the first literal byte of a zero-RLE
// stream, one that is neither a zero-run marker nor part of a run length,
// or -1 when it has none.
func literalAt(rle []byte) int {
	for i := 0; i < len(rle); i++ {
		if rle[i] != 0 {
			return i
		}
		_, k := binary.Uvarint(rle[i+1:])
		i += k
	}
	return -1
}

// TestCodecChecksBehind corrupts one literal byte of the encoder's kept
// zero-RLE stream between Encode and Receive, as a range coder that lost a
// byte would leave the stream and the wire out of step. Receive applies the
// stream at once, so it succeeds and the image carries the changed byte; the
// check behind it must find the mismatch. Settle returns it, and so does the
// next receive that misses the memo, whichever comes first, and every later
// one; an echo of the dump, a memo hit, is received in between. Left
// intact, the same steps settle clean.
func TestCodecChecksBehind(t *testing.T) {
	full := EncodeOptions{Compress: true}
	fp := buildFootprint(t, MNISTFootprint)
	snap := Capture(fp.Pool, fp.Regions, MetastateOnly)
	fp.DirtySome(1)
	// A dump the Codec did not encode: its receive misses the memo.
	other, err := Capture(fp.Pool, fp.Regions, MetastateOnly).Encode(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		corrupt      bool
		receiveFirst bool
	}{{"intact", false, false}, {"corrupt/settle first", true, false}, {"corrupt/receive first", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Codec{}
			dump, err := c.Encode(snap, nil, full)
			if err != nil {
				t.Fatal(err)
			}
			if tc.corrupt {
				k := literalAt(c.encRLE)
				if k < 0 {
					t.Fatal("the encoder's stream has no literal byte")
				}
				c.encRLE[k] = c.encRLE[k]%255 + 1 // another non-zero byte
			}
			img, err := c.Receive(dump, nil)
			if err != nil {
				t.Fatalf("receive: %v", err)
			}
			ref, err := Decode(dump, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := snapshotDiff(img, ref); (d != "") != tc.corrupt {
				t.Fatalf("the image against the decoded wire: %q", d)
			}
			if _, err := c.Receive(dump, img.Clone()); err != nil {
				t.Fatalf("echo: %v", err)
			}
			var first error
			if tc.receiveFirst {
				_, first = c.Receive(other, nil)
			} else {
				first = c.Settle()
			}
			if !tc.corrupt {
				if first != nil {
					t.Fatalf("an intact stream failed its check: %v", first)
				}
				if _, err := c.Receive(other, nil); err != nil {
					t.Fatalf("receive after the check: %v", err)
				}
				return
			}
			if first == nil || !strings.Contains(first.Error(), "differs from") {
				t.Fatalf("the corrupted stream's check gave %v, want a mismatch", first)
			}
			for i := 0; i < 2; i++ {
				if err := c.Settle(); !errors.Is(err, first) {
					t.Fatalf("Settle %d after the mismatch: %v", i, err)
				}
				if _, err := c.Receive(other, nil); !errors.Is(err, first) {
					t.Fatalf("receive %d after the mismatch: %v", i, err)
				}
			}
		})
	}
}

// TestCodecRelease codes and receives an echo pair of MNIST's metastate, a
// dump and its echo, through one Codec and releases it. Release must settle
// the check in flight and leave the zero value, and, with the recycler
// observable (see pooled), hand the encoder's and decoder's zero-RLE streams
// and the check's scratch buffer back to it. The released Codec must then
// code and receive the next echo pair exactly as a fresh one does: the same
// wire bytes, images, range-coder runs and clean check.
func TestCodecRelease(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	full := EncodeOptions{Compress: true}
	fp := buildFootprint(t, MNISTFootprint)
	snap := Capture(fp.Pool, fp.Regions, MetastateOnly)
	// pair codes snap through c and receives the dump and its echo.
	pair := func(c *Codec) []byte {
		t.Helper()
		dump, err := c.Encode(snap, nil, full)
		if err != nil {
			t.Fatal(err)
		}
		if echo, err := c.Encode(snap, nil, full); err != nil || !bytes.Equal(echo, dump) {
			t.Fatalf("the echo: %v", err)
		}
		for _, side := range []string{"client", "cloud"} {
			img, err := c.Receive(dump, nil)
			if err != nil {
				t.Fatalf("%s receive: %v", side, err)
			}
			if d := snapshotDiff(img, snap); d != "" {
				t.Fatalf("%s image: %s", side, d)
			}
			img.Release()
		}
		return dump
	}

	c := &Codec{}
	pair(c)
	c.Release() // the check of the pair is in flight
	if !reflect.DeepEqual(*c, Codec{}) {
		t.Fatal("a released Codec is not the zero value")
	}

	pair(c)
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	held := map[string][]byte{"encoder stream": c.encRLE, "decoder stream": c.decRLE, "check scratch": c.scratch}
	c.Release()
	if !raceDetectorEnabled {
		for name, b := range held {
			if cap(b) < 1<<bufMinShift {
				t.Fatalf("the %s holds %d bytes, too few to recycle", name, cap(b))
			}
			if !pooled(b) {
				t.Fatalf("the %s was not recycled", name)
			}
		}
	}

	fresh := &Codec{}
	want, got := pair(fresh), pair(c)
	if err := errors.Join(fresh.Settle(), c.Settle()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || c.codes != fresh.codes || c.decodes != fresh.decodes {
		t.Fatalf("released Codec: %d wire bytes, %d codes, %d decodes; fresh: %d, %d, %d",
			len(got), c.codes, c.decodes, len(want), fresh.codes, fresh.decodes)
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
