package isa

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpurelay/internal/gpumem"
)

// Fault describes a shader-visible execution fault (the GPU reports these
// through AS_FAULTSTATUS / JS_STATUS).
type Fault struct {
	VA     gpumem.VA
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("isa: fault at VA %#x: %s", f.VA, f.Reason)
}

// Mem gives the interpreter MMU-translated access to shared memory. All
// shader memory traffic goes through the page table the driver configured,
// with permission checks — a recording that restores the wrong page tables
// faults here, just as on hardware.
type Mem struct {
	Pool   *gpumem.Pool
	Walker gpumem.Walker
}

func (m Mem) translate(va gpumem.VA, need gpumem.PTEFlag) (gpumem.PA, error) {
	pa, flags, ok := m.Walker.Translate(va)
	if !ok {
		return 0, &Fault{VA: va, Reason: "translation fault"}
	}
	if flags&need != need {
		return 0, &Fault{VA: va, Reason: fmt.Sprintf("permission fault: have %v need %v", flags, need)}
	}
	return pa, nil
}

// forEachPage invokes fn for every physically contiguous chunk of the VA
// range [va, va+n).
func (m Mem) forEachPage(va gpumem.VA, n uint64, need gpumem.PTEFlag, fn func(pa gpumem.PA, off, cnt uint64) error) error {
	for off := uint64(0); off < n; {
		pa, err := m.translate(va+gpumem.VA(off), need)
		if err != nil {
			return err
		}
		chunk := gpumem.PageSize - uint64(pa)%gpumem.PageSize
		if n-off < chunk {
			chunk = n - off
		}
		if err := fn(pa, off, chunk); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// checkRange faults unless every page of [va, va+n) translates with need.
// Callers check a range before allocating a buffer sized by it, so a
// hostile length costs a failed page walk, not the allocation.
func (m Mem) checkRange(va gpumem.VA, n uint64, need gpumem.PTEFlag) error {
	return m.forEachPage(va, n, need, func(gpumem.PA, uint64, uint64) error { return nil })
}

// ReadBytes copies n bytes starting at va into a fresh buffer. The whole
// range translates before the buffer is allocated.
func (m Mem) ReadBytes(va gpumem.VA, n uint64, need gpumem.PTEFlag) ([]byte, error) {
	if err := m.checkRange(va, n, need); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	err := m.forEachPage(va, n, need, func(pa gpumem.PA, off, cnt uint64) error {
		m.Pool.Read(pa, out[off:off+cnt])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadF32 reads n float32 values starting at va. The whole range translates
// before the result is allocated. Each physically contiguous chunk goes
// through a one-page stack buffer straight into the result, word by word; a
// value straddling a page boundary is carried into the next chunk.
func (m Mem) LoadF32(va gpumem.VA, n int) ([]float32, error) {
	if err := m.checkRange(va, uint64(n)*4, gpumem.PTERead); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	var page [gpumem.PageSize]byte
	var carry [4]byte
	k, nc := 0, 0 // next output index; bytes of a straddling value carried
	err := m.forEachPage(va, uint64(n)*4, gpumem.PTERead, func(pa gpumem.PA, _, cnt uint64) error {
		buf := page[:cnt]
		m.Pool.Read(pa, buf)
		if nc > 0 {
			t := copy(carry[nc:], buf)
			if nc += t; nc < 4 {
				return nil
			}
			out[k] = math.Float32frombits(binary.LittleEndian.Uint32(carry[:]))
			k, nc, buf = k+1, 0, buf[t:]
		}
		for ; len(buf) >= 4; buf = buf[4:] {
			out[k] = math.Float32frombits(binary.LittleEndian.Uint32(buf))
			k++
		}
		nc = copy(carry[:], buf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StoreF32 writes the values starting at va.
func (m Mem) StoreF32(va gpumem.VA, data []float32) error {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		bits := math.Float32bits(v)
		raw[4*i] = byte(bits)
		raw[4*i+1] = byte(bits >> 8)
		raw[4*i+2] = byte(bits >> 16)
		raw[4*i+3] = byte(bits >> 24)
	}
	return m.forEachPage(va, uint64(len(raw)), gpumem.PTEWrite, func(pa gpumem.PA, off, cnt uint64) error {
		m.Pool.Write(pa, raw[off:off+cnt])
		return nil
	})
}

// rangeZero reports whether the VA range reads as all zeros without any page
// being materialized — the dry-run fast-path test.
func (m Mem) rangeZero(va gpumem.VA, n uint64) bool {
	zero := true
	err := m.forEachPage(va, n, gpumem.PTERead, func(pa gpumem.PA, off, cnt uint64) error {
		if m.Pool.RangeMaterialized(pa, cnt) {
			zero = false
		}
		return nil
	})
	return err == nil && zero
}

// zeroOut dematerializes the destination range so it reads as zero.
func (m Mem) zeroOut(va gpumem.VA, n uint64) error {
	return m.forEachPage(va, n, gpumem.PTEWrite, func(pa gpumem.PA, off, cnt uint64) error {
		m.Pool.ZeroRange(pa, cnt)
		return nil
	})
}

// Result summarizes one shader stream execution.
type Result struct {
	// FLOPs is the arithmetic work of the stream, used by the GPU's
	// duration model. It is accounted identically on the dry-run fast
	// path.
	FLOPs int64
	// Instructions executed.
	Instructions int
	// FastPathed counts instructions skipped by the zero fast path.
	FastPathed int
}

// Execute runs the shader stream at shaderVA. productID is the executing
// GPU's identity: a stream compiled for a different SKU faults immediately.
func Execute(mem Mem, shaderVA gpumem.VA, productID uint32) (Result, error) {
	var res Result
	hdrRaw, err := mem.ReadBytes(shaderVA, HeaderSize, gpumem.PTERead|gpumem.PTEExec)
	if err != nil {
		return res, err
	}
	hdr, err := DecodeHeader(hdrRaw)
	if err != nil {
		return res, &Fault{VA: shaderVA, Reason: err.Error()}
	}
	if hdr.ProductID != productID {
		return res, &Fault{VA: shaderVA, Reason: fmt.Sprintf(
			"shader compiled for product %#x, executing on %#x", hdr.ProductID, productID)}
	}
	code, err := mem.ReadBytes(shaderVA+HeaderSize, uint64(hdr.NumInstr)*InstrSize, gpumem.PTERead|gpumem.PTEExec)
	if err != nil {
		return res, err
	}
	for off := 0; off < len(code); off += InstrSize {
		in, err := DecodeInstr(code[off:])
		if err != nil {
			return res, err
		}
		if err := exec(mem, &in, &res); err != nil {
			return res, err
		}
		res.Instructions++
	}
	return res, nil
}

func act(v float32, kind uint32) float32 {
	if kind == 1 && v < 0 {
		return 0
	}
	return v
}

func exec(mem Mem, in *Instr, res *Result) error {
	switch in.Op {
	case OpNop:
		return nil
	case OpConvTile:
		return execConv(mem, in, res)
	case OpDWConvTile:
		return execDWConv(mem, in, res)
	case OpGemmTile:
		return execGemm(mem, in, res)
	case OpBiasAct:
		return execBiasAct(mem, in, res)
	case OpPoolMax, OpPoolAvg:
		return execPool(mem, in, res)
	case OpAdd:
		return execAdd(mem, in, res)
	case OpCopy:
		return execCopy(mem, in, res)
	case OpSoftmax:
		return execSoftmax(mem, in, res)
	case OpScale:
		return execScale(mem, in, res)
	default:
		return &Fault{Reason: fmt.Sprintf("illegal opcode %d", in.Op)}
	}
}

// maxElems bounds the element count of every operand an instruction names,
// counted from the operand's base to the end of the tile. Shader bytes
// arrive inside recordings, so each opcode checks its parameters against it
// in 64-bit arithmetic before it computes an offset or sizes a buffer.
const maxElems = 1<<32 - 1

// malformed is the fault of an instruction whose parameters no compiler
// emits: the job fails instead of the interpreter panicking.
func malformed(in *Instr, format string, args ...any) error {
	return &Fault{Reason: fmt.Sprintf("malformed %v: %s", in.Op, fmt.Sprintf(format, args...))}
}

// extent returns the product of dims, and false when it exceeds maxElems.
func extent(dims ...uint64) (uint64, bool) {
	n := uint64(1)
	for _, d := range dims {
		if d > maxElems {
			return 0, false
		}
		if n *= d; n > maxElems {
			return 0, false
		}
	}
	return n, true
}

// tileExtents checks a channel tile [c0, c1) and, for each operand, that its
// per-channel extent times c1 fits maxElems.
func tileExtents(in *Instr, c0, c1 uint32, perChannel ...uint64) error {
	if c0 > c1 {
		return malformed(in, "channel tile [%d, %d) is reversed", c0, c1)
	}
	for _, n := range perChannel {
		if _, ok := extent(uint64(c1), n); !ok {
			return malformed(in, "operand of %d channels x %d elements exceeds %d elements", c1, n, uint64(maxElems))
		}
	}
	return nil
}

// window is the checked geometry of one sliding-window plane: an inH x inW
// input, a k x k window moved by stride over the input padded by pad on
// every side, and the outH x outW output.
type window struct {
	inH, inW, k, stride, pad, outH, outW int
}

// newWindow checks a sliding-window op's geometry in 64-bit arithmetic.
func newWindow(in *Instr, inH, inW, k, stride, pad uint32) (window, error) {
	if stride == 0 {
		return window{}, malformed(in, "stride 0")
	}
	if k == 0 {
		return window{}, malformed(in, "window size 0")
	}
	outDim := func(n uint32) (uint64, bool) {
		padded := uint64(n) + 2*uint64(pad)
		if uint64(k) > padded {
			return 0, false
		}
		return (padded-uint64(k))/uint64(stride) + 1, true
	}
	outH, okH := outDim(inH)
	outW, okW := outDim(inW)
	if !okH || !okW {
		return window{}, malformed(in, "window %d exceeds input %dx%d padded by %d", k, inH, inW, pad)
	}
	if _, ok := extent(uint64(inH), uint64(inW)); !ok {
		return window{}, malformed(in, "input plane %dx%d exceeds %d elements", inH, inW, uint64(maxElems))
	}
	if _, ok := extent(outH, outW); !ok {
		return window{}, malformed(in, "output plane %dx%d exceeds %d elements", outH, outW, uint64(maxElems))
	}
	return window{
		inH: int(inH), inW: int(inW), k: int(k), stride: int(stride), pad: int(pad),
		outH: int(outH), outW: int(outW),
	}, nil
}

func (g *window) inPlane() uint64  { return uint64(g.inH) * uint64(g.inW) }
func (g *window) outPlane() uint64 { return uint64(g.outH) * uint64(g.outW) }

// interior returns the output rows [y0, y1) and columns [x0, x1) whose
// every tap lies inside the input.
func (g *window) interior() (y0, y1, x0, x1 int) {
	span := func(in, out int) (lo, hi int) {
		lo = min((g.pad+g.stride-1)/g.stride, out)
		if last := in + g.pad - g.k; last >= 0 {
			hi = min(last/g.stride+1, out)
		}
		return lo, max(lo, hi)
	}
	y0, y1 = span(g.inH, g.outH)
	x0, x1 = span(g.inW, g.outW)
	return y0, y1, x0, x1
}

// convolve runs one convolution tile: the zero fast path, then the operand
// loads, then convTile into a buffer allocated only once the destination
// translates. srcN, wN and dstN are the tile's element counts from each
// operand's base address.
func convolve(mem Mem, res *Result, g *window, inC, srcStep int,
	src gpumem.VA, srcN uint64, w gpumem.VA, wN uint64, dst gpumem.VA, dstN uint64) error {
	if mem.rangeZero(src, srcN*4) && mem.rangeZero(w, wN*4) {
		res.FastPathed++
		return mem.zeroOut(dst, dstN*4)
	}
	input, err := mem.LoadF32(src, int(srcN))
	if err != nil {
		return err
	}
	weights, err := mem.LoadF32(w, int(wN))
	if err != nil {
		return err
	}
	if err := mem.checkRange(dst, dstN*4, gpumem.PTEWrite); err != nil {
		return err
	}
	out := make([]float32, dstN)
	convTile(out, input, weights, inC, srcStep, g)
	return mem.StoreF32(dst, out)
}

// convTile computes the output planes of one convolution tile. Plane c
// reads inC input channels from src[c*srcStep:] and its filter from
// w[c*inC*k*k:]: a full convolution shares one input among its planes
// (srcStep 0), a depthwise one steps one channel per plane.
//
// Every output is the sum, in (ic, ky, kx) order and starting from +0, of
// float32(input*weight) over the taps inside the input. Taps in the padding
// are skipped, not added as zeros, which matters for -0 and Inf*0. Interior
// outputs, whose taps all lie inside the input, are computed four adjacent
// at a time with their sums in registers and each input row sliced once per
// (ic, ky). The border, and the last one to three interior outputs of a
// row, keep the per-tap bounds checks of convAt. Each sum adds the same
// terms in the same order either way, so the bits are equal.
func convTile(out, src, w []float32, inC, srcStep int, g *window) {
	k, st, inH, inW := g.k, g.stride, g.inH, g.inW
	taps, plane := inC*k*k, g.outH*g.outW
	y0, y1, x0, x1 := g.interior()
	for c := 0; c < len(out)/plane; c++ {
		dst := out[c*plane : (c+1)*plane]
		in := src[c*srcStep:]
		wc := w[c*taps : (c+1)*taps]
		for oy := 0; oy < g.outH; oy++ {
			row := dst[oy*g.outW : (oy+1)*g.outW]
			ox := 0
			if oy >= y0 && oy < y1 {
				for ; ox < x0; ox++ {
					row[ox] = convAt(in, wc, inC, g, oy, ox)
				}
				top := oy*st - g.pad
				for ; ox+4 <= x1; ox += 4 {
					var s0, s1, s2, s3 float32
					x := ox*st - g.pad
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							line := in[(ic*inH+top+ky)*inW:]
							wr := wc[(ic*k+ky)*k:][:k]
							r0 := line[x:][:len(wr)]
							r1 := line[x+st:][:len(wr)]
							r2 := line[x+2*st:][:len(wr)]
							r3 := line[x+3*st:][:len(wr)]
							for kx, wv := range wr {
								s0 += float32(r0[kx] * wv)
								s1 += float32(r1[kx] * wv)
								s2 += float32(r2[kx] * wv)
								s3 += float32(r3[kx] * wv)
							}
						}
					}
					row[ox], row[ox+1], row[ox+2], row[ox+3] = s0, s1, s2, s3
				}
			}
			for ; ox < g.outW; ox++ {
				row[ox] = convAt(in, wc, inC, g, oy, ox)
			}
		}
	}
}

// convAt is one border output of convTile: the reference per-output loop.
func convAt(in, w []float32, inC int, g *window, oy, ox int) float32 {
	var sum float32
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < g.k; ky++ {
			iy := oy*g.stride + ky - g.pad
			if iy < 0 || iy >= g.inH {
				continue
			}
			for kx := 0; kx < g.k; kx++ {
				ix := ox*g.stride + kx - g.pad
				if ix < 0 || ix >= g.inW {
					continue
				}
				sum += float32(in[(ic*g.inH+iy)*g.inW+ix] * w[(ic*g.k+ky)*g.k+kx])
			}
		}
	}
	return sum
}

func execConv(mem Mem, in *Instr, res *Result) error {
	inC, inH, inW := in.P[0], in.P[1], in.P[2]
	k, stride, pad := in.P[4], in.P[5], in.P[6]
	oc0, oc1 := in.P[7], in.P[8]
	g, err := newWindow(in, inH, inW, k, stride, pad)
	if err != nil {
		return err
	}
	inN, okIn := extent(uint64(inC), g.inPlane())
	taps, okW := extent(uint64(inC), uint64(k), uint64(k))
	if !okIn || !okW {
		return malformed(in, "%d channels of input or filter exceed %d elements", inC, uint64(maxElems))
	}
	if err := tileExtents(in, oc0, oc1, taps, g.outPlane()); err != nil {
		return err
	}
	tileC := oc1 - oc0
	res.FLOPs += int64(tileC) * int64(g.outH) * int64(g.outW) * int64(inC) * int64(k) * int64(k) * 2
	return convolve(mem, res, &g, int(inC), 0,
		in.Src0, inN,
		in.Src1+gpumem.VA(uint64(oc0)*taps*4), uint64(tileC)*taps,
		in.Dst+gpumem.VA(uint64(oc0)*g.outPlane()*4), uint64(tileC)*g.outPlane())
}

func execDWConv(mem Mem, in *Instr, res *Result) error {
	inH, inW := in.P[1], in.P[2]
	k, stride, pad := in.P[3], in.P[4], in.P[5]
	c0, c1 := in.P[6], in.P[7]
	g, err := newWindow(in, inH, inW, k, stride, pad)
	if err != nil {
		return err
	}
	taps := uint64(k) * uint64(k)
	if err := tileExtents(in, c0, c1, g.inPlane(), taps, g.outPlane()); err != nil {
		return err
	}
	tileC := c1 - c0
	res.FLOPs += int64(tileC) * int64(g.outH) * int64(g.outW) * int64(k) * int64(k) * 2
	return convolve(mem, res, &g, 1, g.inH*g.inW,
		in.Src0+gpumem.VA(uint64(c0)*g.inPlane()*4), uint64(tileC)*g.inPlane(),
		in.Src1+gpumem.VA(uint64(c0)*taps*4), uint64(tileC)*taps,
		in.Dst+gpumem.VA(uint64(c0)*g.outPlane()*4), uint64(tileC)*g.outPlane())
}

func execGemm(mem Mem, in *Instr, res *Result) error {
	_, n, k := in.P[0], in.P[1], in.P[2]
	m0, m1 := in.P[3], in.P[4]
	accumulate := in.P[5] != 0
	if err := tileExtents(in, m0, m1, uint64(k), uint64(n)); err != nil {
		return err
	}
	if _, ok := extent(uint64(k), uint64(n)); !ok {
		return malformed(in, "B of %dx%d exceeds %d elements", k, n, uint64(maxElems))
	}
	rows := m1 - m0
	res.FLOPs += int64(rows) * int64(n) * int64(k) * 2

	aOff := gpumem.VA(uint64(m0) * uint64(k) * 4)
	cOff := gpumem.VA(uint64(m0) * uint64(n) * 4)
	// A zero operand on either side zeroes the product (and contributes
	// nothing when accumulating).
	if mem.rangeZero(in.Src0+aOff, uint64(rows)*uint64(k)*4) ||
		mem.rangeZero(in.Src1, uint64(k)*uint64(n)*4) {
		res.FastPathed++
		if accumulate {
			return nil
		}
		return mem.zeroOut(in.Dst+cOff, uint64(rows)*uint64(n)*4)
	}
	a, err := mem.LoadF32(in.Src0+aOff, int(rows*k))
	if err != nil {
		return err
	}
	b, err := mem.LoadF32(in.Src1, int(k*n))
	if err != nil {
		return err
	}
	var c []float32
	if accumulate {
		c, err = mem.LoadF32(in.Dst+cOff, int(rows*n))
		if err != nil {
			return err
		}
	} else {
		if err := mem.checkRange(in.Dst+cOff, uint64(rows)*uint64(n)*4, gpumem.PTEWrite); err != nil {
			return err
		}
		c = make([]float32, rows*n)
	}
	for i := uint32(0); i < rows; i++ {
		for kk := uint32(0); kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			row := b[kk*n : kk*n+n]
			out := c[i*n : i*n+n]
			for j := range row {
				out[j] += float32(av * row[j])
			}
		}
	}
	return mem.StoreF32(in.Dst+cOff, c)
}

func execBiasAct(mem Mem, in *Instr, res *Result) error {
	count, n, actKind := in.P[0], in.P[1], in.P[2]
	if n == 0 || count < n {
		return malformed(in, "%d elements over %d channels", count, n)
	}
	res.FLOPs += int64(count) * 2
	if mem.rangeZero(in.Src0, uint64(count)*4) && mem.rangeZero(in.Src1, uint64(n)*4) {
		res.FastPathed++
		return mem.zeroOut(in.Dst, uint64(count)*4)
	}
	data, err := mem.LoadF32(in.Src0, int(count))
	if err != nil {
		return err
	}
	bias, err := mem.LoadF32(in.Src1, int(n))
	if err != nil {
		return err
	}
	stride := count / n // elements per channel (NCHW: contiguous per channel)
	for i := range data {
		ch := uint32(i) / stride % n
		data[i] = act(data[i]+bias[ch], actKind)
	}
	return mem.StoreF32(in.Dst, data)
}

func execPool(mem Mem, in *Instr, res *Result) error {
	inH, inW := in.P[1], in.P[2]
	k, stride, pad := in.P[3], in.P[4], in.P[5]
	c0, c1 := in.P[6], in.P[7]
	g, err := newWindow(in, inH, inW, k, stride, pad)
	if err != nil {
		return err
	}
	if err := tileExtents(in, c0, c1, g.inPlane(), g.outPlane()); err != nil {
		return err
	}
	tileC := uint64(c1 - c0)
	res.FLOPs += int64(tileC) * int64(g.outH) * int64(g.outW) * int64(k) * int64(k)

	src := in.Src0 + gpumem.VA(uint64(c0)*g.inPlane()*4)
	dst := in.Dst + gpumem.VA(uint64(c0)*g.outPlane()*4)
	if mem.rangeZero(src, tileC*g.inPlane()*4) {
		res.FastPathed++
		return mem.zeroOut(dst, tileC*g.outPlane()*4)
	}
	input, err := mem.LoadF32(src, int(tileC*g.inPlane()))
	if err != nil {
		return err
	}
	if err := mem.checkRange(dst, tileC*g.outPlane()*4, gpumem.PTEWrite); err != nil {
		return err
	}
	out := make([]float32, tileC*g.outPlane())
	for ch := 0; ch < int(tileC); ch++ {
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				var acc float32
				cnt := 0
				first := true
				for ky := 0; ky < g.k; ky++ {
					iy := oy*g.stride + ky - g.pad
					if iy < 0 || iy >= g.inH {
						continue
					}
					for kx := 0; kx < g.k; kx++ {
						ix := ox*g.stride + kx - g.pad
						if ix < 0 || ix >= g.inW {
							continue
						}
						v := input[(ch*g.inH+iy)*g.inW+ix]
						if in.Op == OpPoolMax {
							if first || v > acc {
								acc = v
							}
							first = false
						} else {
							acc += v
							cnt++
						}
					}
				}
				if in.Op == OpPoolAvg && cnt > 0 {
					acc /= float32(cnt)
				}
				out[(ch*g.outH+oy)*g.outW+ox] = acc
			}
		}
	}
	return mem.StoreF32(dst, out)
}

func execAdd(mem Mem, in *Instr, res *Result) error {
	count := in.P[0]
	res.FLOPs += int64(count)
	if mem.rangeZero(in.Src0, uint64(count)*4) && mem.rangeZero(in.Src1, uint64(count)*4) {
		res.FastPathed++
		return mem.zeroOut(in.Dst, uint64(count)*4)
	}
	a, err := mem.LoadF32(in.Src0, int(count))
	if err != nil {
		return err
	}
	b, err := mem.LoadF32(in.Src1, int(count))
	if err != nil {
		return err
	}
	for i := range a {
		a[i] += b[i]
	}
	return mem.StoreF32(in.Dst, a)
}

func execCopy(mem Mem, in *Instr, res *Result) error {
	count := in.P[0]
	if mem.rangeZero(in.Src0, uint64(count)*4) {
		res.FastPathed++
		return mem.zeroOut(in.Dst, uint64(count)*4)
	}
	a, err := mem.LoadF32(in.Src0, int(count))
	if err != nil {
		return err
	}
	return mem.StoreF32(in.Dst, a)
}

func execSoftmax(mem Mem, in *Instr, res *Result) error {
	count := in.P[0]
	if count == 0 {
		return malformed(in, "no elements")
	}
	res.FLOPs += int64(count) * 4
	// Softmax is NOT zero-preserving: softmax(0) is uniform. No fast path.
	x, err := mem.LoadF32(in.Src0, int(count))
	if err != nil {
		return err
	}
	maxV := x[0]
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxV))
		x[i] = float32(e)
		sum += e
	}
	for i := range x {
		x[i] = float32(float64(x[i]) / sum)
	}
	return mem.StoreF32(in.Dst, x)
}

func execScale(mem Mem, in *Instr, res *Result) error {
	count := in.P[0]
	scale := math.Float32frombits(in.P[1])
	res.FLOPs += int64(count)
	if mem.rangeZero(in.Src0, uint64(count)*4) {
		res.FastPathed++
		return mem.zeroOut(in.Dst, uint64(count)*4)
	}
	x, err := mem.LoadF32(in.Src0, int(count))
	if err != nil {
		return err
	}
	for i := range x {
		x[i] *= scale
	}
	return mem.StoreF32(in.Dst, x)
}
