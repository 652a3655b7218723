package gpumem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the whole-region delta encoder as the reference the
// page-wise one in dump.go is checked against (TestDeltaEncodeMatchesReference,
// FuzzDeltaEncodeMatchesReference, TestDirtyParallelEncodeEquivalence).

// refEncode is Snapshot.Encode for a well-formed snapshot and base, the way
// the encoder worked before it compared regions page by page: every region
// is XORed against its base in full, the payload is concatenated, and the
// concatenation is zero-RLE coded by a plain byte loop and range-coded in
// one piece. It shares the header layout and the range coder with the
// encoder under test, and nothing else; the range coder has its own
// reference (rangecoder_ref_test.go).
func refEncode(s, prev *Snapshot, opts EncodeOptions) []byte {
	delta := opts.Delta && prev != nil
	payload := make([]byte, 0, s.RawBytes())
	for i, r := range s.Regions {
		payload = append(payload, r.Data...)
		if delta {
			xor := payload[len(payload)-len(r.Data):]
			for k, b := range prev.Regions[i].Data {
				xor[k] ^= b
			}
		}
	}
	flags := uint8(0)
	if opts.Delta {
		flags |= 1
	}
	body := payload
	if opts.Compress {
		flags |= 2
		body = rangeCodeRLE(refZeroRLE(payload))
	}
	out := make([]byte, s.headerLen())
	s.putHeader(out, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

// refZeroRLE is the zero-RLE pre-pass on a contiguous payload: literal bytes
// as they are, each run of zeros as a 0x00 and the run's uvarint length.
func refZeroRLE(data []byte) []byte {
	var out []byte
	for i := 0; i < len(data); {
		if data[i] != 0 {
			out = append(out, data[i])
			i++
			continue
		}
		j := i
		for j < len(data) && data[j] == 0 {
			j++
		}
		out = binary.AppendUvarint(append(out, 0), uint64(j-i))
		i = j
	}
	return out
}

// deltaOpts are the delta encodings the recorder and the naive path could
// ask for.
var deltaOpts = []EncodeOptions{{Delta: true, Compress: true}, {Delta: true}}

// checkDeltaEncode encodes cur against base every way (stateless, through a
// Codec, compressed and raw) and checks the wire bytes against refEncode and
// the decoded contents against cur.
func checkDeltaEncode(tb testing.TB, name string, cur, base *Snapshot) {
	tb.Helper()
	for _, opts := range deltaOpts {
		want := refEncode(cur, base, opts)
		got, err := cur.Encode(base, opts)
		if err != nil {
			tb.Fatalf("%s %+v: encode: %v", name, opts, err)
		}
		if !bytes.Equal(got, want) {
			tb.Fatalf("%s %+v: wire differs from the whole-region reference (%d vs %d bytes)",
				name, opts, len(got), len(want))
		}
		if got, err = (&Codec{}).Encode(cur, base, opts); err != nil || !bytes.Equal(got, want) {
			tb.Fatalf("%s %+v: codec wire differs from the whole-region reference (%v)", name, opts, err)
		}
		dec, err := Decode(got, base)
		if err != nil {
			tb.Fatalf("%s %+v: decode: %v", name, opts, err)
		}
		if d := snapshotDiff(dec, cur); d != "" {
			tb.Fatalf("%s %+v: decoded snapshot differs: %s", name, opts, d)
		}
		dec.Release()
	}
}

// checkDeltaChunks checks appendDelta's chunk list for one region, with the
// region's page list from its capture (nil to compare every page): no two
// zero chunks in a row, no unequal bytes sent as zeros, every data chunk one
// page span that differs from its base (so equal spans cost no buffer), and
// the whole spanning the region.
func checkDeltaChunks(tb testing.TB, name string, cur, base []byte, pages []int) {
	tb.Helper()
	chunks := appendDelta(nil, cur, base, pages)
	off := 0
	for i, c := range chunks {
		if c.isZeroRun() {
			if i > 0 && chunks[i-1].isZeroRun() {
				tb.Fatalf("%s: zero chunks %d and %d not merged", name, i-1, i)
			}
			if !bytes.Equal(cur[off:off+c.n], base[off:off+c.n]) {
				tb.Fatalf("%s: unequal bytes at [%d, %d) sent as zeros", name, off, off+c.n)
			}
		} else {
			if off%PageSize != 0 || c.n > PageSize || bytes.Equal(cur[off:off+c.n], base[off:off+c.n]) {
				tb.Fatalf("%s: data chunk [%d, %d) is not one differing page span", name, off, off+c.n)
			}
			putBuf(c.data)
		}
		off += c.n
	}
	if off != len(cur) {
		tb.Fatalf("%s: chunks span %d bytes of %d", name, off, len(cur))
	}
}

// TestDeltaEncodeMatchesReference checks the page-wise delta encoder on the
// page-grid edge cases, each set up in a pool and captured through
// CaptureState as the syncer does, against the whole-region reference.
func TestDeltaEncodeMatchesReference(t *testing.T) {
	const page = PageSize
	write := func(p *Pool, r *Region, off int, b ...byte) { p.Write(r.PA+PA(off), b) }
	for _, row := range []struct {
		name  string
		sizes []int
		edit  func(p *Pool, rs []*Region)
		clean []int // regions the capture must alias
		dirty []int // regions written to with their own bytes
	}{
		{"sizes off the page grid", []int{100, page + 1, 3*page - 5}, func(p *Pool, rs []*Region) {
			write(p, rs[0], 99, 0xA5)
			write(p, rs[1], page, 0xA5)
			write(p, rs[2], page-1, 1, 2, 3)
		}, nil, nil},
		{"change only in the final partial span", []int{2*page + 100}, func(p *Pool, rs []*Region) {
			write(p, rs[0], 2*page+57, 0x3C)
		}, nil, nil},
		{"one-byte changes at 4095 and 4096", []int{3 * page}, func(p *Pool, rs []*Region) {
			write(p, rs[0], 4095, 0xFF)
			write(p, rs[0], 4096, 0xFF)
		}, nil, nil},
		{"page rewritten to its base bytes", []int{3 * page, page}, func(p *Pool, rs []*Region) {
			old := make([]byte, page)
			p.Read(rs[0].PA+page, old)
			p.Write(rs[0].PA+page, make([]byte, page))
			p.Write(rs[0].PA+page, old)
			write(p, rs[0], 2*page+8, 0x77)
			p.Read(rs[1].PA, old)
			p.Write(rs[1].PA, bytes.Repeat([]byte{0x55}, page))
			p.Write(rs[1].PA, old)
		}, nil, []int{1}},
		{"every page changed", []int{5*page + 7}, func(p *Pool, rs []*Region) {
			buf := make([]byte, rs[0].Size)
			rand.New(rand.NewSource(5)).Read(buf)
			p.Write(rs[0].PA, buf)
		}, nil, nil},
		{"zero-length and sub-page regions", []int{0, 1, 17, page - 1, 0}, func(p *Pool, rs []*Region) {
			write(p, rs[1], 0, 0xEE)
			write(p, rs[3], page-2, 0xEE)
		}, []int{0, 2, 4}, nil},
		{"aliased clean region between dirty ones", []int{2 * page, 3 * page, page + 9}, func(p *Pool, rs []*Region) {
			write(p, rs[0], 10, 1)
			write(p, rs[2], page+8, 1)
		}, []int{1}, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(len(row.name))))
			pool := NewPool(64 << 10)
			var regions []*Region
			for i, size := range row.sizes {
				pa, err := pool.Alloc(uint64(max(size, 1)))
				if err != nil {
					t.Fatal(err)
				}
				r := &Region{Name: fmt.Sprintf("r%d", i), Kind: KindCommands, PA: pa,
					VA: VA(0x1000_0000 + uint64(pa)), Size: uint64(size)}
				buf := make([]byte, size)
				rnd.Read(buf)
				pool.Write(pa, buf)
				regions = append(regions, r)
			}
			var cs CaptureState
			base := cs.Capture(pool, regions, nil)
			cs.Commit(base)
			mark := cs.Watermark()
			row.edit(pool, regions)
			cur := cs.Capture(pool, regions, nil)
			for _, i := range row.clean {
				if len(cur.Regions[i].Data) > 0 && !sameBuffer(cur.Regions[i].Data, base.Regions[i].Data) {
					t.Fatalf("region %d was re-read, want it aliased", i)
				}
			}
			for _, i := range row.dirty {
				r := regions[i]
				if !pool.DirtySince(r.PA, r.Size, mark) || sameBuffer(cur.Regions[i].Data, base.Regions[i].Data) ||
					!bytes.Equal(cur.Regions[i].Data, base.Regions[i].Data) {
					t.Fatalf("region %d is not dirty by generation and equal by content", i)
				}
			}
			for i := range cur.Regions {
				checkDeltaChunks(t, fmt.Sprintf("region %d", i), cur.Regions[i].Data, base.Regions[i].Data, cur.Regions[i].pages)
				checkDeltaChunks(t, fmt.Sprintf("region %d, every page", i), cur.Regions[i].Data, base.Regions[i].Data, nil)
			}
			checkDeltaEncode(t, row.name, cur, base)
		})
	}
}

// deltaFuzzSnapshots builds the base and current snapshots of one
// FuzzDeltaEncodeMatchesReference input. layout gives up to six region
// sizes, two bytes each, below four pages; the base is dense pseudo-random
// and the current snapshot starts as its copy. edits is read five bytes at a
// time, an operation, a region, a two-byte offset and a value: set one byte
// (possibly to its base value), rewrite a page to its base bytes, fill a
// page with the value, or alias the region's base buffer as a clean
// capture does (a later edit of that region copies it first).
func deltaFuzzSnapshots(layout, edits []byte) (cur, base *Snapshot) {
	base, cur = &Snapshot{}, &Snapshot{}
	rng := xorshift64(0x51DE)
	for i := 0; i+1 < len(layout) && i < 12; i += 2 {
		size := int(binary.LittleEndian.Uint16(layout[i:])) % (4*PageSize - 1)
		data := make([]byte, size)
		rng.fill(data)
		r := RegionSnapshot{Name: fmt.Sprintf("r%d", i/2), Kind: KindCommands,
			VA: VA(0x1000 * (i + 1)), PA: PA(0x10000 * (i + 1)), Data: data}
		base.Regions = append(base.Regions, r)
		r.Data = append([]byte(nil), data...)
		cur.Regions = append(cur.Regions, r)
	}
	if len(cur.Regions) == 0 {
		return cur, base
	}
	for i := 0; i+4 < len(edits) && i < 5*64; i += 5 {
		k := int(edits[i+1]) % len(cur.Regions)
		c, b := &cur.Regions[k], base.Regions[k].Data
		off, v := int(binary.LittleEndian.Uint16(edits[i+2:])), edits[i+4]
		if len(b) == 0 {
			continue
		}
		if edits[i]%4 == 3 {
			c.Data = b
			continue
		}
		if sameBuffer(c.Data, b) {
			c.Data = append([]byte(nil), b...)
		}
		pg := off % len(b) / PageSize * PageSize
		end := min(pg+PageSize, len(b))
		switch edits[i] % 4 {
		case 0:
			c.Data[off%len(b)] = v
		case 1:
			copy(c.Data[pg:end], b[pg:end])
		case 2:
			for x := pg; x < end; x++ {
				c.Data[x] = v
			}
		}
	}
	return cur, base
}

// FuzzDeltaEncodeMatchesReference checks the page-wise delta encoder against
// the whole-region reference on fuzzer-chosen layouts and edits.
func FuzzDeltaEncodeMatchesReference(f *testing.F) {
	for _, s := range deltaFuzzSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, layout, edits []byte) {
		cur, base := deltaFuzzSnapshots(layout, edits)
		for i := range cur.Regions {
			checkDeltaChunks(t, fmt.Sprintf("region %d", i), cur.Regions[i].Data, base.Regions[i].Data, nil)
		}
		checkDeltaEncode(t, "fuzz", cur, base)
	})
}

// deltaFuzzSeeds returns (layout, edits) pairs covering every edit and the
// page-grid edge cases of TestDeltaEncodeMatchesReference.
func deltaFuzzSeeds() [][2][]byte {
	sizes := func(n ...int) []byte {
		var b []byte
		for _, v := range n {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return b
	}
	edit := func(op, region byte, off int, v byte) []byte {
		return append(binary.LittleEndian.AppendUint16([]byte{op, region}, uint16(off)), v)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][2][]byte{
		{sizes(100, PageSize+1, 3*PageSize-5), cat(edit(0, 0, 99, 1), edit(0, 1, PageSize, 2), edit(0, 2, PageSize-1, 3))},
		{sizes(2*PageSize + 100), edit(0, 0, 2*PageSize+57, 0x3C)},
		{sizes(3 * PageSize), cat(edit(0, 0, 4095, 0xFF), edit(0, 0, 4096, 0xFF))},
		{sizes(3 * PageSize), cat(edit(2, 0, PageSize, 0), edit(1, 0, PageSize, 0), edit(0, 0, 2*PageSize+8, 0x77))},
		{sizes(3*PageSize + 7), cat(edit(2, 0, 0, 1), edit(2, 0, PageSize, 2), edit(2, 0, 2*PageSize, 3), edit(2, 0, 3*PageSize, 4))},
		{sizes(0, 1, 17, PageSize-1, 0), cat(edit(0, 1, 0, 0xEE), edit(0, 3, PageSize-2, 0xEE))},
		{sizes(2*PageSize, 3*PageSize, PageSize+9), cat(edit(0, 0, 10, 1), edit(3, 1, 0, 0), edit(0, 2, PageSize+8, 1))},
		{sizes(PageSize), cat(edit(3, 0, 0, 0), edit(0, 0, 5, 9))},
		{nil, nil},
	}
}
