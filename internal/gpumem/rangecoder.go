package gpumem

import (
	"encoding/binary"
	"fmt"
)

// This file implements the range coder both shims use to compress memory
// dumps (§5: "Both shims use range encoding to compress memory dumps"). It
// is a binary adaptive range coder in the LZMA style with an order-0
// bit-tree byte model: each byte is coded as 8 bits through a 256-node
// probability tree that adapts as it codes. Zero-dominated dumps — exactly
// what dry-run recording produces once program data is zero-filled —
// compress by two to three orders of magnitude.
//
// The coder operates on *chunk lists* rather than one contiguous payload:
// the snapshot encoder hands it one chunk per region (some known-zero
// without a backing buffer at all) and the zero-RLE pre-pass merges runs
// across chunk boundaries, so the coded stream is byte-identical to coding
// the concatenation while never materializing it.
//
// Decoding runs the two stages back in two steps: decodeRLE range-decodes
// the body to its RLE stream once (ParseDump), and expandRLE writes the
// stream into region buffers as often as it is applied (Dump.Apply).

const (
	rcTopBits    = 24
	rcTop        = 1 << rcTopBits
	rcModelTotal = 1 << 11 // probabilities are 11-bit
	rcMoveBits   = 5
	rcInitProb   = rcModelTotal / 2
)

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

func newRCEncoder(scratch []byte) *rcEncoder {
	return &rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1, out: scratch[:0]}
}

func (e *rcEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+e.low>>32))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) encodeBit(prob *uint16, bit int) {
	bound := (e.rng >> 11) * uint32(*prob)
	if bit == 0 {
		e.rng = bound
		*prob += (rcModelTotal - *prob) >> rcMoveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*prob -= *prob >> rcMoveBits
	}
	for e.rng < rcTop {
		e.shiftLow()
		e.rng <<= 8
	}
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

type rcDecoder struct {
	rng  uint32
	code uint32
	in   []byte
	pos  int
}

func newRCDecoder(data []byte) (*rcDecoder, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("range coder: truncated stream")
	}
	d := &rcDecoder{rng: 0xFFFFFFFF, in: data}
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.in[d.pos])
		d.pos++
	}
	return d, nil
}

func (d *rcDecoder) decodeBit(prob *uint16) int {
	bound := (d.rng >> 11) * uint32(*prob)
	var bit int
	if d.code < bound {
		d.rng = bound
		*prob += (rcModelTotal - *prob) >> rcMoveBits
	} else {
		d.code -= bound
		d.rng -= bound
		*prob -= *prob >> rcMoveBits
		bit = 1
	}
	for d.rng < rcTop {
		var b byte // stream end: trailing zero bytes are implied
		if d.pos < len(d.in) {
			b = d.in[d.pos]
			d.pos++
		}
		d.code = d.code<<8 | uint32(b)
		d.rng <<= 8
	}
	return bit
}

type byteModel struct {
	probs [256]uint16
}

func (m *byteModel) init() {
	for i := range m.probs {
		m.probs[i] = rcInitProb
	}
}

func (m *byteModel) encode(e *rcEncoder, b byte) {
	ctx := 1
	for i := 7; i >= 0; i-- {
		bit := int(b>>uint(i)) & 1
		e.encodeBit(&m.probs[ctx], bit)
		ctx = ctx<<1 | bit
	}
}

func (m *byteModel) decode(d *rcDecoder) byte {
	ctx := 1
	for i := 0; i < 8; i++ {
		ctx = ctx<<1 | d.decodeBit(&m.probs[ctx])
	}
	return byte(ctx)
}

// chunk is one piece of a logically concatenated payload. A nil data with
// n > 0 is a known-zero chunk: the encoder treats it as n zero bytes without
// reading (or even having) a buffer — this is how delta encoding of a
// clean, dirty-tracked region costs O(1) instead of O(size).
type chunk struct {
	data []byte
	n    int // length; == len(data) when data != nil
}

func dataChunk(b []byte) chunk   { return chunk{data: b, n: len(b)} }
func zeroChunk(n int) chunk      { return chunk{n: n} }
func (c *chunk) isZeroRun() bool { return c.data == nil }

func chunksLen(chunks []chunk) int {
	total := 0
	for i := range chunks {
		total += chunks[i].n
	}
	return total
}

// rleWriter produces the zero-RLE stream: a 0x00 in the output is always
// followed by a uvarint run length. Runs are accumulated across chunk
// boundaries, so the output is byte-identical to RLE-coding the
// concatenation. The adaptive bit probabilities of the range coder bottom
// out around 1.5 % of input size on constant data, so this pre-pass is what
// delivers the orders-of-magnitude ratios the paper relies on for
// zero-filled program data.
type rleWriter struct {
	out []byte
	run uint64 // pending zero-run length
}

func (w *rleWriter) flushRun() {
	if w.run == 0 {
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], w.run)
	w.out = append(w.out, 0)
	w.out = append(w.out, tmp[:n]...)
	w.run = 0
}

func (w *rleWriter) write(data []byte) {
	i := 0
	for i < len(data) {
		// Word-wise scan over the zero span.
		j := i
		for j+8 <= len(data) && binary.LittleEndian.Uint64(data[j:]) == 0 {
			j += 8
		}
		for j < len(data) && data[j] == 0 {
			j++
		}
		if j > i {
			w.run += uint64(j - i)
			i = j
			continue
		}
		w.flushRun()
		j = i
		for j < len(data) && data[j] != 0 {
			j++
		}
		w.out = append(w.out, data[i:j]...)
		i = j
	}
}

// zeroRLEChunks RLE-codes the logical concatenation of chunks into scratch.
func zeroRLEChunks(chunks []chunk, scratch []byte) []byte {
	w := rleWriter{out: scratch[:0]}
	for i := range chunks {
		c := &chunks[i]
		if c.isZeroRun() {
			w.run += uint64(c.n)
			continue
		}
		w.write(c.data)
	}
	w.flushRun()
	return w.out
}

func zeroFill(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// rangeEncodeChunks compresses the logical concatenation of chunks: a
// zero-RLE pre-pass followed by the adaptive range coder. The stream starts
// with a uvarint of the RLE stream length. The returned buffer is freshly
// allocated at its exact size (it typically outlives the call inside a
// recording); all scratch is pooled.
func rangeEncodeChunks(chunks []chunk) []byte {
	total := chunksLen(chunks)
	rleScratch := getBuf(total/8 + 64)
	rle := zeroRLEChunks(chunks, rleScratch)
	out := rangeCodeRLE(rle)
	putBuf(rle)
	return out
}

// rangeCodeRLE range-codes a zero-RLE stream behind its uvarint length.
func rangeCodeRLE(rle []byte) []byte {
	codedScratch := getBuf(len(rle) + len(rle)/16 + 64)
	e := newRCEncoder(codedScratch)
	var m byteModel
	m.init()
	for _, b := range rle {
		m.encode(e, b)
	}
	coded := e.flush()

	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rle)))
	out := make([]byte, n+len(coded))
	copy(out, hdr[:n])
	copy(out[n:], coded)
	putBuf(e.out)
	return out
}

// decodeRLE runs the range decoder over a rangeEncodeChunks stream and
// returns the zero-RLE stream it carries, in a buffer from alloc. The stream
// is validated as it is decoded: its declared length may not exceed twice
// total, the encoder's worst case (every zero byte a run of one); every run
// must be a well-formed, non-zero uvarint; and the expansion must come to
// exactly total bytes. Past the end of its input the decoder reads zeros,
// which decode to zero-length runs, so a short body fails where it ends
// instead of claiming a long stream.
func decodeRLE(encoded []byte, total int, alloc func(int) []byte) ([]byte, error) {
	rleLen, n := binary.Uvarint(encoded)
	if n <= 0 {
		return nil, fmt.Errorf("range coder: missing RLE header")
	}
	if rleLen > 2*uint64(total) {
		return nil, fmt.Errorf("range coder: %d-byte RLE stream exceeds twice the %d-byte payload", rleLen, total)
	}
	d, err := newRCDecoder(encoded[n:])
	if err != nil {
		return nil, err
	}
	var m byteModel
	m.init()
	rle := alloc(int(rleLen))
	left := uint64(total) // bytes the stream has yet to expand to
	for i := 0; i < len(rle); {
		b := m.decode(d)
		rle[i] = b
		i++
		if b != 0 {
			if left == 0 {
				return nil, fmt.Errorf("range coder: literal overflows output")
			}
			left--
			continue
		}
		// A zero marker byte is always followed by its uvarint run length,
		// itself coded through the byte model.
		start := i
		for {
			if i >= len(rle) || i-start >= binary.MaxVarintLen64 {
				return nil, fmt.Errorf("range coder: corrupt zero run")
			}
			rle[i] = m.decode(d)
			i++
			if rle[i-1] < 0x80 {
				break
			}
		}
		run, k := binary.Uvarint(rle[start:i])
		switch {
		case k <= 0:
			return nil, fmt.Errorf("range coder: corrupt zero run")
		case run == 0:
			return nil, fmt.Errorf("range coder: zero-length run")
		case run > left:
			return nil, fmt.Errorf("range coder: zero run overflows output")
		}
		left -= run
	}
	if left != 0 {
		return nil, fmt.Errorf("range coder: expanded to fewer than %d bytes", total)
	}
	return rle, nil
}

// expandRLE writes the payload a decodeRLE-validated stream describes into
// the regions' buffers, whose lengths sum to exactly its expansion. With xor
// set the payload is a delta: literal spans are XORed into the buffers, and
// zero runs, which leave a delta base unchanged, are skipped. Otherwise
// literals are copied and zero runs zero-filled.
func expandRLE(rle []byte, regions []RegionSnapshot, xor bool) {
	ri, dst := -1, []byte(nil) // current region and its unwritten rest
	for i := 0; i < len(rle); {
		var lit []byte
		n := 0 // zero-run length
		if rle[i] != 0 {
			j := i + 1
			for j < len(rle) && rle[j] != 0 {
				j++
			}
			lit, i = rle[i:j], j
			n = len(lit)
		} else {
			run, k := binary.Uvarint(rle[i+1:])
			i += 1 + k
			n = int(run)
		}
		for n > 0 {
			for len(dst) == 0 {
				ri++
				dst = regions[ri].Data
			}
			m := min(n, len(dst))
			switch {
			case lit == nil && !xor:
				zeroFill(dst[:m])
			case lit != nil && xor:
				for x, b := range lit[:m] {
					dst[x] ^= b
				}
				lit = lit[m:]
			case lit != nil:
				copy(dst, lit[:m])
				lit = lit[m:]
			}
			dst, n = dst[m:], n-m
		}
	}
}

// RangeEncode compresses data with a zero-RLE pre-pass followed by the
// adaptive range coder. The stream starts with a uvarint of the RLE stream
// length.
func RangeEncode(data []byte) []byte {
	return rangeEncodeChunks([]chunk{dataChunk(data)})
}

// RangeDecode decompresses a RangeEncode stream of the given original length.
func RangeDecode(encoded []byte, length int) ([]byte, error) {
	rle, err := decodeRLE(encoded, length, newBuf)
	if err != nil {
		return nil, err
	}
	out := []RegionSnapshot{{Data: make([]byte, length)}}
	expandRLE(rle, out, false)
	return out[0].Data, nil
}
