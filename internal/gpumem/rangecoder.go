package gpumem

import (
	"bytes"
	"encoding/binary"
	"errors"
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
//
// Every dump is range-coded and, on the recording side, decoded again, so
// the per-bit loops are written for speed: coder state stays in locals for
// a whole stream (rangeCodeRLE) or byte (rangeDecoder.decodeByte), and no
// branch depends on a coded bit: each bit selects with a mask or, for the
// decoder's adapted probability, a conditional move (go build -gcflags=-S
// shows the CMOV). A coded bit splits the
// range at bound = (rng>>11)*p: a 0 keeps [0, bound), a 1 keeps [bound,
// rng). With mask all ones for a 1 and zero for a 0, both cases are
//
//	low += bound & mask
//	rng = bound + ((rng - 2*bound) & mask)
//
// and the adapted probability is picked between its two candidates the same
// way (adapt) or by the decoder's conditional move. This is the arithmetic
// of the straightforward branching coder, term for term and modulo 2^32
// where it wraps, so the wire is bit-exact with it on every input, corrupt
// streams included.
// testdata/wire_golden.json pins the wire, and rangecoder_ref_test.go keeps
// the branching coder as a differential oracle.
//
// One normalization step per bit is enough. Adaptation keeps every
// probability in [31, 2017]: p += (2048-p)>>5 stops at 2017 and p -= p>>5
// stops at 31. Entering a bit with rng >= 2^24, both parts of the split are
// at least rng*31/2048 >= 2^24*31/2048 > 2^17.9, so a single 8-bit shift
// restores rng >= 2^24.

const (
	rcTopBits    = 24
	rcTop        = 1 << rcTopBits
	rcModelTotal = 1 << 11 // probabilities are 11-bit
	rcMoveBits   = 5
	rcInitProb   = rcModelTotal / 2
)

// adapt returns probability p moved toward the bit just coded: up toward
// rcModelTotal for a 0 (mask zero), down toward 0 for a 1 (mask all ones).
func adapt(p, mask uint32) uint16 {
	up := p + (rcModelTotal-p)>>rcMoveBits
	down := p - p>>rcMoveBits
	return uint16(up ^ ((up ^ down) & mask))
}

// rcWriter is the encoder's byte output. A byte leaving low is held back as
// cache, behind cacheSize-1 pending 0xFF bytes, until it is known whether a
// carry out of low (its bit 32) increments it; a carry turns the pending
// 0xFFs into 0x00s.
type rcWriter struct {
	cache     byte
	cacheSize int
	out       []byte
}

// shiftLow moves the top byte of low to the writer and returns low shifted
// up by a byte. It runs once per normalization, not per bit; keeping it out
// of line keeps the per-bit loop's state in registers.
//
//go:noinline
func (w *rcWriter) shiftLow(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		w.out = append(w.out, w.cache+carry)
		for ; w.cacheSize > 1; w.cacheSize-- {
			w.out = append(w.out, 0xFF+carry)
		}
		w.cache, w.cacheSize = byte(low>>24), 0
	}
	w.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// rangeDecoder is the decoding side: the coder state plus the byte model's
// 256-node probability tree.
type rangeDecoder struct {
	probs [256]uint16
	rng   uint32
	code  uint32
	in    []byte
	pos   int
}

func (d *rangeDecoder) init(data []byte) error {
	if len(data) < 5 {
		return fmt.Errorf("range coder: truncated stream")
	}
	for i := range d.probs {
		d.probs[i] = rcInitProb
	}
	d.rng, d.code, d.in, d.pos = 0xFFFFFFFF, 0, data, 5
	for _, b := range data[:5] {
		d.code = d.code<<8 | uint32(b)
	}
	return nil
}

// decodeByte decodes the next byte's 8 bits with the coder state in locals.
func (d *rangeDecoder) decodeByte() byte {
	rng, code, in, pos := d.rng, d.code, d.in, d.pos
	s := uint32(1) // the bits decoded so far behind a leading 1: a tree node
	for s < 0x100 {
		p := uint32(d.probs[s])
		bound := (rng >> 11) * p
		// The bit is 1 when code >= bound: the 64-bit difference is then
		// non-negative, so its sign bit, zero, is 1 for a 0 bit, and zero-1
		// is the mask. A bit's latency is the chain from one tree node to
		// the next: the probability load, the multiply, and three one-cycle
		// steps from bound to the next node (subtract, shift, subtract).
		zero := uint32((uint64(code) - uint64(bound)) >> 63)
		mask := zero - 1
		code -= bound & mask
		rng = bound + ((rng - 2*bound) & mask)
		// A conditional move picks the adapted probability (adapt's mask
		// select spills a register here). The compiler keeps a branch for
		// any select that feeds the next node's load address, so rng and
		// code stay masked.
		q := p + (rcModelTotal-p)>>rcMoveBits
		if zero == 0 {
			q = p - p>>rcMoveBits
		}
		d.probs[s] = uint16(q)
		s = (s<<1 | 1) - zero // appends the bit
		if rng < rcTop {
			var b byte // stream end: trailing zero bytes are implied
			if pos < len(in) {
				b = in[pos]
				pos++
			}
			code = code<<8 | uint32(b)
			rng <<= 8
		}
	}
	d.rng, d.code, d.pos = rng, code, pos
	return byte(s)
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
// zero-RLE pre-pass followed by the adaptive range coder, run by c (nil:
// stateless). The stream starts with a uvarint of the RLE stream length.
// The returned buffer is allocated at its exact size and must not be
// modified (a Codec may return it again); all scratch is pooled.
func rangeEncodeChunks(chunks []chunk, c *Codec) []byte {
	return c.rangeCode(zeroRLEChunks(chunks, getBuf(chunksLen(chunks)/8+64)))
}

// rangeCodeRLE range-codes a zero-RLE stream behind its uvarint length.
func rangeCodeRLE(rle []byte) []byte {
	var probs [256]uint16 // the byte model, indexed like rangeDecoder.probs
	for i := range probs {
		probs[i] = rcInitProb
	}
	low, rng := uint64(0), uint32(0xFFFFFFFF)
	w := rcWriter{cacheSize: 1, out: getBuf(len(rle) + len(rle)/16 + 64)[:0]}
	for _, b := range rle {
		// s>>8 is the tree node: the bits coded so far behind a leading 1.
		// Bit 7 of s is the next bit to code.
		for s := uint32(b) | 0x100; s < 0x10000; s <<= 1 {
			ctx := uint8(s >> 8)
			p := uint32(probs[ctx])
			bound := (rng >> 11) * p
			mask := -(s >> 7 & 1)
			low += uint64(bound & mask)
			rng = bound + ((rng - 2*bound) & mask)
			probs[ctx] = adapt(p, mask)
			if rng < rcTop {
				low = w.shiftLow(low)
				rng <<= 8
			}
		}
	}
	for i := 0; i < 5; i++ {
		low = w.shiftLow(low)
	}

	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rle)))
	out := make([]byte, n+len(w.out))
	copy(out, hdr[:n])
	copy(out[n:], w.out)
	putBuf(w.out)
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
	if err := checkRLELen(rleLen, total); err != nil {
		return nil, err
	}
	var d rangeDecoder
	if err := d.init(encoded[n:]); err != nil {
		return nil, err
	}
	rle := alloc(int(rleLen))
	left := uint64(total) // bytes the stream has yet to expand to
	for i := 0; i < len(rle); {
		b := d.decodeByte()
		rle[i] = b
		i++
		if b != 0 {
			if left == 0 {
				return nil, errLiteralOverflow
			}
			left--
			continue
		}
		// A zero marker byte is always followed by its uvarint run length,
		// itself coded through the byte model.
		start := i
		for {
			if i >= len(rle) || i-start >= binary.MaxVarintLen64 {
				return nil, errCorruptRun
			}
			rle[i] = d.decodeByte()
			i++
			if rle[i-1] < 0x80 {
				break
			}
		}
		var err error
		if left, err = takeRun(rle[start:i], left); err != nil {
			return nil, err
		}
	}
	if err := checkExpanded(left, total); err != nil {
		return nil, err
	}
	return rle, nil
}

var (
	errLiteralOverflow = errors.New("range coder: literal overflows output")
	errCorruptRun      = errors.New("range coder: corrupt zero run")
)

// checkRLELen refuses a zero-RLE stream longer than twice the payload total
// it expands to, the encoder's worst case (every zero byte a run of one).
func checkRLELen(n uint64, total int) error {
	if n > 2*uint64(total) {
		return fmt.Errorf("range coder: %d-byte RLE stream exceeds twice the %d-byte payload", n, total)
	}
	return nil
}

// takeRun charges the zero run whose uvarint length is v, at most
// MaxVarintLen64 bytes ending in one below 0x80, to the left bytes the
// stream has yet to expand to, and returns what is left after it.
func takeRun(v []byte, left uint64) (uint64, error) {
	run, k := binary.Uvarint(v)
	switch {
	case k <= 0:
		return 0, errCorruptRun
	case run == 0:
		return 0, fmt.Errorf("range coder: zero-length run")
	case run > left:
		return 0, fmt.Errorf("range coder: zero run overflows output")
	}
	return left - run, nil
}

// checkExpanded refuses a stream that left bytes of its total unwritten.
func checkExpanded(left uint64, total int) error {
	if left != 0 {
		return fmt.Errorf("range coder: expanded to fewer than %d bytes", total)
	}
	return nil
}

// checkRLE holds a zero-RLE stream in the clear to the rules decodeRLE
// enforces as it decodes one: at most twice total bytes long, every run a
// well-formed, non-zero uvarint, and an expansion of exactly total bytes.
func checkRLE(rle []byte, total int) error {
	if err := checkRLELen(uint64(len(rle)), total); err != nil {
		return err
	}
	left := uint64(total)
	for i := 0; i < len(rle); {
		if rle[i] != 0 {
			n := bytes.IndexByte(rle[i:], 0)
			if n < 0 {
				n = len(rle) - i
			}
			if uint64(n) > left {
				return errLiteralOverflow
			}
			left -= uint64(n)
			i += n
			continue
		}
		start := i + 1
		end := start
		for end < len(rle) && end-start < binary.MaxVarintLen64 && rle[end] >= 0x80 {
			end++
		}
		if end == len(rle) || end-start == binary.MaxVarintLen64 {
			return errCorruptRun
		}
		var err error
		if left, err = takeRun(rle[start:end+1], left); err != nil {
			return err
		}
		i = end + 1
	}
	return checkExpanded(left, total)
}

// expandRLE writes the payload a decodeRLE-validated stream describes into
// the regions' buffers, whose lengths sum to exactly its expansion. With xor
// set the payload is a delta: literal spans are XORed into the buffers, and
// zero runs, which leave a delta base unchanged, are skipped; with track set
// too, the PageSize spans each literal touches are noted in its region's
// page list. Otherwise literals are copied and zero runs zero-filled.
func expandRLE(rle []byte, regions []RegionSnapshot, xor, track bool) {
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
				if track {
					r := &regions[ri]
					r.pages = notePages(r.pages, len(r.Data)-len(dst), m)
				}
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

// notePages appends the PageSize spans that the n > 0 bytes at off overlap
// to pages, but not one the list already ends with.
func notePages(pages []int, off, n int) []int {
	for k := off / PageSize; k <= (off+n-1)/PageSize; k++ {
		if len(pages) == 0 || pages[len(pages)-1] != k {
			pages = append(pages, k)
		}
	}
	return pages
}

// RangeEncode compresses data with a zero-RLE pre-pass followed by the
// adaptive range coder. The stream starts with a uvarint of the RLE stream
// length.
func RangeEncode(data []byte) []byte {
	return rangeEncodeChunks([]chunk{dataChunk(data)}, nil)
}

// RangeDecode decompresses a RangeEncode stream of the given original length.
func RangeDecode(encoded []byte, length int) ([]byte, error) {
	rle, err := decodeRLE(encoded, length, newBuf)
	if err != nil {
		return nil, err
	}
	out := []RegionSnapshot{{Data: make([]byte, length)}}
	expandRLE(rle, out, false, false)
	return out[0].Data, nil
}
