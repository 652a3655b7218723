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

// ReadBytes copies n bytes starting at va into a fresh buffer.
func (m Mem) ReadBytes(va gpumem.VA, n uint64, need gpumem.PTEFlag) ([]byte, error) {
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

// LoadF32 reads n float32 values starting at va. Each physically contiguous
// chunk goes through a one-page stack buffer straight into the result, word
// by word; a value straddling a page boundary is carried into the next chunk.
func (m Mem) LoadF32(va gpumem.VA, n int) ([]float32, error) {
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
	for i := uint32(0); i < hdr.NumInstr; i++ {
		in, err := DecodeInstr(code[i*InstrSize:])
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

func outDim(in, k, stride, pad uint32) uint32 {
	return (in+2*pad-k)/stride + 1
}

func execConv(mem Mem, in *Instr, res *Result) error {
	inC, inH, inW := in.P[0], in.P[1], in.P[2]
	k, stride, pad := in.P[4], in.P[5], in.P[6]
	oc0, oc1 := in.P[7], in.P[8]
	outH, outW := outDim(inH, k, stride, pad), outDim(inW, k, stride, pad)
	tileC := oc1 - oc0
	res.FLOPs += int64(tileC) * int64(outH) * int64(outW) * int64(inC) * int64(k) * int64(k) * 2

	inBytes := uint64(inC) * uint64(inH) * uint64(inW) * 4
	wOff := gpumem.VA(uint64(oc0) * uint64(inC) * uint64(k) * uint64(k) * 4)
	wBytes := uint64(tileC) * uint64(inC) * uint64(k) * uint64(k) * 4
	dstOff := gpumem.VA(uint64(oc0) * uint64(outH) * uint64(outW) * 4)
	dstBytes := uint64(tileC) * uint64(outH) * uint64(outW) * 4
	if mem.rangeZero(in.Src0, inBytes) && mem.rangeZero(in.Src1+wOff, wBytes) {
		res.FastPathed++
		return mem.zeroOut(in.Dst+dstOff, dstBytes)
	}

	input, err := mem.LoadF32(in.Src0, int(inC*inH*inW))
	if err != nil {
		return err
	}
	weights, err := mem.LoadF32(in.Src1+wOff, int(tileC*inC*k*k))
	if err != nil {
		return err
	}
	out := make([]float32, tileC*outH*outW)
	for oc := uint32(0); oc < tileC; oc++ {
		for oy := uint32(0); oy < outH; oy++ {
			for ox := uint32(0); ox < outW; ox++ {
				var sum float32
				for ic := uint32(0); ic < inC; ic++ {
					for ky := uint32(0); ky < k; ky++ {
						iy := int(oy*stride+ky) - int(pad)
						if iy < 0 || iy >= int(inH) {
							continue
						}
						for kx := uint32(0); kx < k; kx++ {
							ix := int(ox*stride+kx) - int(pad)
							if ix < 0 || ix >= int(inW) {
								continue
							}
							sum += input[(ic*inH+uint32(iy))*inW+uint32(ix)] *
								weights[((oc*inC+ic)*k+ky)*k+kx]
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return mem.StoreF32(in.Dst+dstOff, out)
}

func execDWConv(mem Mem, in *Instr, res *Result) error {
	c, inH, inW := in.P[0], in.P[1], in.P[2]
	k, stride, pad := in.P[3], in.P[4], in.P[5]
	c0, c1 := in.P[6], in.P[7]
	_ = c
	outH, outW := outDim(inH, k, stride, pad), outDim(inW, k, stride, pad)
	tileC := c1 - c0
	res.FLOPs += int64(tileC) * int64(outH) * int64(outW) * int64(k) * int64(k) * 2

	srcOff := gpumem.VA(uint64(c0) * uint64(inH) * uint64(inW) * 4)
	srcBytes := uint64(tileC) * uint64(inH) * uint64(inW) * 4
	wOff := gpumem.VA(uint64(c0) * uint64(k) * uint64(k) * 4)
	wBytes := uint64(tileC) * uint64(k) * uint64(k) * 4
	dstOff := gpumem.VA(uint64(c0) * uint64(outH) * uint64(outW) * 4)
	dstBytes := uint64(tileC) * uint64(outH) * uint64(outW) * 4
	if mem.rangeZero(in.Src0+srcOff, srcBytes) && mem.rangeZero(in.Src1+wOff, wBytes) {
		res.FastPathed++
		return mem.zeroOut(in.Dst+dstOff, dstBytes)
	}

	input, err := mem.LoadF32(in.Src0+srcOff, int(tileC*inH*inW))
	if err != nil {
		return err
	}
	weights, err := mem.LoadF32(in.Src1+wOff, int(tileC*k*k))
	if err != nil {
		return err
	}
	out := make([]float32, tileC*outH*outW)
	for ch := uint32(0); ch < tileC; ch++ {
		for oy := uint32(0); oy < outH; oy++ {
			for ox := uint32(0); ox < outW; ox++ {
				var sum float32
				for ky := uint32(0); ky < k; ky++ {
					iy := int(oy*stride+ky) - int(pad)
					if iy < 0 || iy >= int(inH) {
						continue
					}
					for kx := uint32(0); kx < k; kx++ {
						ix := int(ox*stride+kx) - int(pad)
						if ix < 0 || ix >= int(inW) {
							continue
						}
						sum += input[(ch*inH+uint32(iy))*inW+uint32(ix)] * weights[(ch*k+ky)*k+kx]
					}
				}
				out[(ch*outH+oy)*outW+ox] = sum
			}
		}
	}
	return mem.StoreF32(in.Dst+dstOff, out)
}

func execGemm(mem Mem, in *Instr, res *Result) error {
	_, n, k := in.P[0], in.P[1], in.P[2]
	m0, m1 := in.P[3], in.P[4]
	accumulate := in.P[5] != 0
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
				out[j] += av * row[j]
			}
		}
	}
	return mem.StoreF32(in.Dst+cOff, c)
}

func execBiasAct(mem Mem, in *Instr, res *Result) error {
	count, n, actKind := in.P[0], in.P[1], in.P[2]
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
	_, inH, inW := in.P[0], in.P[1], in.P[2]
	k, stride, pad := in.P[3], in.P[4], in.P[5]
	c0, c1 := in.P[6], in.P[7]
	outH, outW := outDim(inH, k, stride, pad), outDim(inW, k, stride, pad)
	tileC := c1 - c0
	res.FLOPs += int64(tileC) * int64(outH) * int64(outW) * int64(k) * int64(k)

	srcOff := gpumem.VA(uint64(c0) * uint64(inH) * uint64(inW) * 4)
	dstOff := gpumem.VA(uint64(c0) * uint64(outH) * uint64(outW) * 4)
	if mem.rangeZero(in.Src0+srcOff, uint64(tileC)*uint64(inH)*uint64(inW)*4) {
		res.FastPathed++
		return mem.zeroOut(in.Dst+dstOff, uint64(tileC)*uint64(outH)*uint64(outW)*4)
	}
	input, err := mem.LoadF32(in.Src0+srcOff, int(tileC*inH*inW))
	if err != nil {
		return err
	}
	out := make([]float32, tileC*outH*outW)
	for ch := uint32(0); ch < tileC; ch++ {
		for oy := uint32(0); oy < outH; oy++ {
			for ox := uint32(0); ox < outW; ox++ {
				var acc float32
				cnt := 0
				first := true
				for ky := uint32(0); ky < k; ky++ {
					iy := int(oy*stride+ky) - int(pad)
					if iy < 0 || iy >= int(inH) {
						continue
					}
					for kx := uint32(0); kx < k; kx++ {
						ix := int(ox*stride+kx) - int(pad)
						if ix < 0 || ix >= int(inW) {
							continue
						}
						v := input[(ch*inH+uint32(iy))*inW+uint32(ix)]
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
				out[(ch*outH+oy)*outW+ox] = acc
			}
		}
	}
	return mem.StoreF32(in.Dst+dstOff, out)
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
