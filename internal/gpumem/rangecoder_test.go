package gpumem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// footprintRLE returns the zero-RLE streams the range coder sees for spec's
// footprint: that of a full dump, and that of a delta dump after one
// DirtySome step. Both expand to total bytes.
func footprintRLE(tb testing.TB, spec FootprintSpec) (full, delta []byte, total int) {
	tb.Helper()
	fp := buildFootprint(tb, spec)
	prev := Capture(fp.Pool, fp.Regions, nil)
	defer prev.Release()
	chunks := make([]chunk, len(prev.Regions))
	for i, r := range prev.Regions {
		chunks[i] = dataChunk(r.Data)
	}
	full = zeroRLEChunks(chunks, nil)
	total = chunksLen(chunks)

	fp.DirtySome(1)
	var w rleWriter
	for i, r := range fp.Regions {
		buf := captureRegion(fp.Pool, r)
		xorWith(buf, prev.Regions[i].Data)
		w.write(buf)
		putBuf(buf)
	}
	w.flushRun()
	return full, w.out, total
}

// decodeBytes range-decodes a rangeCodeRLE stream back to the bytes it
// carries, without interpreting them as zero-RLE, and returns the decoder's
// final probabilities with them.
func decodeBytes(encoded []byte) ([]byte, [256]uint16, error) {
	var d rangeDecoder
	n, k := binary.Uvarint(encoded)
	if err := d.init(encoded[k:]); err != nil {
		return nil, d.probs, err
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = d.decodeByte()
	}
	return out, d.probs, nil
}

// checkMatchesReference requires the production coder to write the
// reference coder's bytes for stream, and both decoders to read stream back
// from them. A stream that is valid zero-RLE for a total-byte payload
// (total >= 0) must also come back unchanged through decodeRLE. It returns
// the production decoder's final probabilities.
func checkMatchesReference(tb testing.TB, name string, stream []byte, total int) [256]uint16 {
	tb.Helper()
	want := refRangeCodeRLE(stream)
	got := rangeCodeRLE(stream)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		tb.Fatalf("%s: coded %d bytes, reference %d; first difference at byte %d", name, len(got), len(want), i)
	}
	ref, err := refDecodeBytes(want)
	if err != nil || !bytes.Equal(ref, stream) {
		tb.Fatalf("%s: reference decoder gave %d bytes, %v; want the %d-byte stream", name, len(ref), err, len(stream))
	}
	dec, probs, err := decodeBytes(got)
	if err != nil || !bytes.Equal(dec, stream) {
		tb.Fatalf("%s: decoder gave %d bytes, %v; want the %d-byte stream", name, len(dec), err, len(stream))
	}
	if total >= 0 {
		rle, err := decodeRLE(got, total, newBuf)
		if err != nil || !bytes.Equal(rle, stream) {
			tb.Fatalf("%s: decodeRLE gave %d bytes, %v; want the %d-byte stream", name, len(rle), err, len(stream))
		}
	}
	return probs
}

// TestRangeCoderMatchesReference is the differential oracle for the
// branchless coder: on streams that pin the probabilities at both bounds,
// on random bytes with long carry chains, and on the RLE streams of real
// footprint dumps, it writes exactly the reference coder's bytes and reads
// them back exactly.
func TestRangeCoderMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		b      byte
		bounds []uint16 // probabilities the stream must pin
		total  int      // expansion when the stream is valid zero-RLE, else -1
	}{
		{0x00, []uint16{2017}, -1},
		{0xFF, []uint16{31}, 64 << 10},
		{0xAB, []uint16{31, 2017}, 64 << 10},
	} {
		probs := checkMatchesReference(t, "constant", bytes.Repeat([]byte{tc.b}, 64<<10), tc.total)
		for _, p := range tc.bounds {
			if !slices.Contains(probs[:], p) {
				t.Fatalf("constant %#02x: no probability reached %d", tc.b, p)
			}
		}
	}

	random := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(random)
	checkMatchesReference(t, "random", random, -1)
	if chain := refLongestCarryChain(random); chain < 3 {
		t.Fatalf("random stream: longest carry chain %d pending bytes, want >= 3", chain)
	}

	for _, spec := range FootprintSpecs() {
		full, delta, total := footprintRLE(t, spec)
		checkMatchesReference(t, spec.Name+"/full", full, total)
		checkMatchesReference(t, spec.Name+"/delta", delta, total)
	}
}

// rangeCoderFuzzSeeds are FuzzRangeCoderMatchesReference's seed inputs.
func rangeCoderFuzzSeeds() [][]byte {
	random := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(random)
	sparse := make([]byte, 4096)
	for i := 0; i < len(sparse); i += 97 {
		sparse[i] = byte(i)
	}
	return [][]byte{nil, {0}, {0xFF}, bytes.Repeat([]byte{0}, 300), bytes.Repeat([]byte{0xFF}, 300),
		[]byte("the quick brown fox jumps over the lazy dog"), random, sparse}
}

// FuzzRangeCoderMatchesReference checks the production coder against the
// reference on arbitrary input, coded both as a raw byte stream and as the
// zero-RLE stream of a payload.
func FuzzRangeCoderMatchesReference(f *testing.F) {
	for _, s := range rangeCoderFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, "raw", data, -1)
		checkMatchesReference(t, "rle", zeroRLEChunks([]chunk{dataChunk(data)}, nil), len(data))
	})
}

// BenchmarkRangeCoder times the range coder alone on the zero-RLE stream of
// each footprint's full dump. SetBytes is the stream length, so MB/s is
// coder throughput in RLE bytes.
func BenchmarkRangeCoder(b *testing.B) {
	for _, spec := range FootprintSpecs() {
		rle, _, total := footprintRLE(b, spec)
		coded := rangeCodeRLE(rle)
		b.Run("encode/"+spec.Name, func(b *testing.B) {
			b.SetBytes(int64(len(rle)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coded = rangeCodeRLE(rle)
			}
		})
		b.Run("decode/"+spec.Name, func(b *testing.B) {
			b.SetBytes(int64(len(rle)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := decodeRLE(coded, total, getBuf)
				if err != nil {
					b.Fatal(err)
				}
				putBuf(out)
			}
		})
	}
}
