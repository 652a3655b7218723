package gpumem

import (
	"encoding/binary"
	"fmt"
)

// This file keeps the original, straightforward range coder as the
// reference the production coder in rangecoder.go is checked against
// (TestRangeCoderMatchesReference, FuzzRangeCoderMatchesReference). The
// types below are the pre-optimization implementation, unchanged: one
// pointer-receiver call per coded bit, state in struct fields, and a
// normalization loop. Their output defines the wire format that
// testdata/wire_golden.json pins.

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

// refRangeCodeRLE is rangeCodeRLE on the reference coder: the stream's
// uvarint length, then its range-coded bytes.
func refRangeCodeRLE(rle []byte) []byte {
	e := newRCEncoder(nil)
	var m byteModel
	m.init()
	for _, b := range rle {
		m.encode(e, b)
	}
	return append(binary.AppendUvarint(nil, uint64(len(rle))), e.flush()...)
}

// refDecodeBytes range-decodes a refRangeCodeRLE stream back to the bytes
// it carries, without interpreting them as zero-RLE.
func refDecodeBytes(encoded []byte) ([]byte, error) {
	n, k := binary.Uvarint(encoded)
	if k <= 0 {
		return nil, fmt.Errorf("range coder: missing RLE header")
	}
	d, err := newRCDecoder(encoded[k:])
	if err != nil {
		return nil, err
	}
	var m byteModel
	m.init()
	out := make([]byte, n)
	for i := range out {
		out[i] = m.decode(d)
	}
	return out, nil
}

// refLongestCarryChain encodes rle on the reference coder bit by bit and
// returns the longest run of pending bytes (cacheSize) that a carry out of
// low propagated through. A flush of cacheSize pending bytes writes the
// cache byte and then cacheSize-1 bytes of 0xFF plus the carry, so a carry
// shows as those bytes wrapping to 0x00.
func refLongestCarryChain(rle []byte) int64 {
	e := newRCEncoder(nil)
	var m byteModel
	m.init()
	var longest int64
	for _, b := range rle {
		ctx := 1
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			pending, n := e.cacheSize, len(e.out)
			e.encodeBit(&m.probs[ctx], bit)
			if pending >= 2 && len(e.out) >= n+int(pending) && e.out[n+int(pending)-1] == 0 {
				longest = max(longest, pending)
			}
			ctx = ctx<<1 | bit
		}
	}
	return longest
}
