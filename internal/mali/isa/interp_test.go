package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"gpurelay/internal/gpumem"
)

// testEnv builds a pool, a page table, and an identity-ish mapping large
// enough for small kernels, and returns a Mem view plus an allocator that
// hands out mapped VA ranges.
type testEnv struct {
	t      testing.TB
	pool   *gpumem.Pool
	pt     *gpumem.PageTable
	mem    Mem
	nextVA gpumem.VA
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
	pool := gpumem.NewPool(32 << 20)
	pt, err := gpumem.NewPageTable(pool, gpumem.FormatLPAE)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{
		t: t, pool: pool, pt: pt,
		mem: Mem{Pool: pool, Walker: gpumem.Walker{
			Pool: pool, Format: gpumem.FormatLPAE, Root: pt.Root(),
		}},
		nextVA: 0x10000000,
	}
}

func (e *testEnv) alloc(size uint64, flags gpumem.PTEFlag) gpumem.VA {
	e.t.Helper()
	size = (size + gpumem.PageSize - 1) &^ (gpumem.PageSize - 1)
	pa, err := e.pool.Alloc(size)
	if err != nil {
		e.t.Fatal(err)
	}
	va := e.nextVA
	if err := e.pt.MapRange(va, pa, size, flags); err != nil {
		e.t.Fatal(err)
	}
	e.nextVA += gpumem.VA(size + gpumem.PageSize) // guard page between allocs
	return va
}

func (e *testEnv) writeF32(va gpumem.VA, data []float32) {
	e.t.Helper()
	if err := e.mem.StoreF32(va, data); err != nil {
		e.t.Fatal(err)
	}
}

func (e *testEnv) readF32(va gpumem.VA, n int) []float32 {
	e.t.Helper()
	out, err := e.mem.LoadF32(va, n)
	if err != nil {
		e.t.Fatal(err)
	}
	return out
}

// buildShader encodes instrs into an exec-mapped region and returns its VA.
func (e *testEnv) buildShader(product uint32, instrs []Instr) gpumem.VA {
	e.t.Helper()
	size := uint64(HeaderSize + len(instrs)*InstrSize)
	va := e.alloc(size, gpumem.PTERead|gpumem.PTEWrite|gpumem.PTEExec)
	buf := make([]byte, size)
	EncodeHeader(Header{ProductID: product, CoreCount: 4, NumInstr: uint32(len(instrs))}, buf)
	for i := range instrs {
		instrs[i].Encode(buf[HeaderSize+i*InstrSize:])
	}
	pa, _, ok := e.mem.Walker.Translate(va)
	if !ok {
		e.t.Fatal("shader VA not mapped")
	}
	// Shader regions are written CPU-side (by the JIT), bypassing GPU perms.
	_ = pa
	for off := uint64(0); off < size; off += gpumem.PageSize {
		p, _, _ := e.mem.Walker.Translate(va + gpumem.VA(off))
		end := off + gpumem.PageSize
		if end > size {
			end = size
		}
		e.pool.Write(p, buf[off:end])
	}
	return va
}

const testProduct = 0x60000001

// LoadF32 must agree with a byte-wise read at every alignment, across
// physically discontiguous pages, including values that straddle a page.
func TestLoadF32AcrossPages(t *testing.T) {
	e := newTestEnv(t)
	const pages = 3
	va := e.nextVA
	for i := 0; i < pages; i++ {
		// Every other page skipped, so VA-contiguous pages are PA-discontiguous.
		pa, err := e.pool.AllocPages(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.pt.MapRange(va+gpumem.VA(i*gpumem.PageSize), pa+gpumem.PageSize, gpumem.PageSize, gpumem.PTERead|gpumem.PTEWrite); err != nil {
			t.Fatal(err)
		}
	}
	raw := make([]byte, pages*gpumem.PageSize)
	for i := range raw {
		raw[i] = byte(i*131 + i>>8)
	}
	raw[gpumem.PageSize+5] = 0 // leave the second page partly zero
	for i := 0; i < pages; i++ {
		p, _, _ := e.mem.Walker.Translate(va + gpumem.VA(i*gpumem.PageSize))
		if i != 2 { // the third page stays unmaterialized and reads as zero
			e.pool.Write(p, raw[i*gpumem.PageSize:(i+1)*gpumem.PageSize])
		} else {
			clear(raw[i*gpumem.PageSize:])
		}
	}
	for _, start := range []int{0, 1, 2, 3, 4, gpumem.PageSize - 6, gpumem.PageSize - 1, 2*gpumem.PageSize - 3} {
		n := (len(raw) - start) / 4
		got := e.readF32(va+gpumem.VA(start), n)
		for i := range got {
			want := binary.LittleEndian.Uint32(raw[start+4*i:])
			if math.Float32bits(got[i]) != want {
				t.Fatalf("start %d: value %d = %#x, want %#x", start, i, math.Float32bits(got[i]), want)
			}
		}
	}
}

func TestInstrEncodeDecodeRoundTrip(t *testing.T) {
	in := Instr{
		Op: OpConvTile, Core: 3, Src0: 0x1000, Src1: 0x2000, Dst: 0x3000,
		P: [10]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	buf := make([]byte, InstrSize)
	in.Encode(buf)
	got, err := DecodeInstr(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("round trip: got %+v want %+v", got, in)
	}
}

func TestHeaderRoundTripAndBadMagic(t *testing.T) {
	buf := make([]byte, HeaderSize)
	EncodeHeader(Header{ProductID: 7, CoreCount: 8, NumInstr: 9}, buf)
	h, err := DecodeHeader(buf)
	if err != nil || h.ProductID != 7 || h.CoreCount != 8 || h.NumInstr != 9 {
		t.Fatalf("header round trip: %+v, %v", h, err)
	}
	buf[0] = 0
	if _, err := DecodeHeader(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestGemmCompute(t *testing.T) {
	e := newTestEnv(t)
	a := e.alloc(4*6, gpumem.PTERead)                 // 2x3
	b := e.alloc(4*12, gpumem.PTERead)                // 3x4
	c := e.alloc(4*8, gpumem.PTERead|gpumem.PTEWrite) // 2x4
	e.writeF32viaPA(a, []float32{1, 2, 3, 4, 5, 6})
	e.writeF32viaPA(b, []float32{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1})
	sh := e.buildShader(testProduct, []Instr{{
		Op: OpGemmTile, Src0: a, Src1: b, Dst: c, P: [10]uint32{2, 4, 3, 0, 2},
	}})
	res, err := Execute(e.mem, sh, testProduct)
	if err != nil {
		t.Fatal(err)
	}
	got := e.readF32(c, 8)
	want := []float32{1, 2, 3, 3, 4, 5, 6, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if res.FLOPs != 2*4*3*2 {
		t.Fatalf("FLOPs = %d, want 48", res.FLOPs)
	}
	if res.FastPathed != 0 {
		t.Fatal("materialized inputs took the fast path")
	}
}

// writeF32viaPA writes through the page table regardless of GPU permissions,
// as the CPU-side runtime does.
func (e *testEnv) writeF32viaPA(va gpumem.VA, data []float32) {
	e.t.Helper()
	for i, v := range data {
		pa, _, ok := e.mem.Walker.Translate(va + gpumem.VA(4*i))
		if !ok {
			e.t.Fatalf("VA %#x unmapped", va+gpumem.VA(4*i))
		}
		e.pool.Write32(pa, math.Float32bits(v))
	}
}

func TestConvCompute(t *testing.T) {
	e := newTestEnv(t)
	// 1 input channel 3x3, 1 output channel, k=3, stride 1, pad 1.
	in := e.alloc(4*9, gpumem.PTERead)
	w := e.alloc(4*9, gpumem.PTERead)
	out := e.alloc(4*9, gpumem.PTERead|gpumem.PTEWrite)
	e.writeF32viaPA(in, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	// Identity kernel: only center tap is 1.
	e.writeF32viaPA(w, []float32{0, 0, 0, 0, 1, 0, 0, 0, 0})
	sh := e.buildShader(testProduct, []Instr{{
		Op: OpConvTile, Src0: in, Src1: w, Dst: out,
		P: [10]uint32{1, 3, 3, 1, 3, 1, 1, 0, 1},
	}})
	if _, err := Execute(e.mem, sh, testProduct); err != nil {
		t.Fatal(err)
	}
	got := e.readF32(out, 9)
	for i, v := range []float32{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		if got[i] != v {
			t.Fatalf("identity conv out[%d] = %v, want %v", i, got[i], v)
		}
	}
}

func TestPoolingAndBiasAct(t *testing.T) {
	e := newTestEnv(t)
	in := e.alloc(4*16, gpumem.PTERead)
	out := e.alloc(4*4, gpumem.PTERead|gpumem.PTEWrite)
	e.writeF32viaPA(in, []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	})
	sh := e.buildShader(testProduct, []Instr{{
		Op: OpPoolMax, Src0: in, Dst: out,
		P: [10]uint32{1, 4, 4, 2, 2, 0, 0, 1},
	}})
	if _, err := Execute(e.mem, sh, testProduct); err != nil {
		t.Fatal(err)
	}
	got := e.readF32(out, 4)
	want := []float32{4, 8, -1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maxpool[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// BiasAct with ReLU on the pooled output.
	bias := e.alloc(4, gpumem.PTERead)
	act := e.alloc(4*4, gpumem.PTERead|gpumem.PTEWrite)
	e.writeF32viaPA(bias, []float32{0.5})
	sh2 := e.buildShader(testProduct, []Instr{{
		Op: OpBiasAct, Src0: out, Src1: bias, Dst: act,
		P: [10]uint32{4, 1, 1},
	}})
	if _, err := Execute(e.mem, sh2, testProduct); err != nil {
		t.Fatal(err)
	}
	got = e.readF32(act, 4)
	want = []float32{4.5, 8.5, 0, 9.5} // -1+0.5 ReLU'd to 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("biasact[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSoftmax(t *testing.T) {
	e := newTestEnv(t)
	in := e.alloc(4*3, gpumem.PTERead)
	out := e.alloc(4*3, gpumem.PTERead|gpumem.PTEWrite)
	e.writeF32viaPA(in, []float32{1, 2, 3})
	sh := e.buildShader(testProduct, []Instr{{
		Op: OpSoftmax, Src0: in, Dst: out, P: [10]uint32{3},
	}})
	if _, err := Execute(e.mem, sh, testProduct); err != nil {
		t.Fatal(err)
	}
	got := e.readF32(out, 3)
	var sum float32
	for _, v := range got {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(got[2] > got[1] && got[1] > got[0]) {
		t.Fatalf("softmax not monotone: %v", got)
	}
}

func TestDryRunFastPath(t *testing.T) {
	e := newTestEnv(t)
	// Nothing materialized: a conv over zero input/weights must fast-path
	// and leave the output unmaterialized while accounting FLOPs.
	in := e.alloc(4*9, gpumem.PTERead)
	w := e.alloc(4*9, gpumem.PTERead)
	out := e.alloc(4*9, gpumem.PTERead|gpumem.PTEWrite)
	sh := e.buildShader(testProduct, []Instr{{
		Op: OpConvTile, Src0: in, Src1: w, Dst: out,
		P: [10]uint32{1, 3, 3, 1, 3, 1, 1, 0, 1},
	}})
	before := e.pool.MaterializedBytes()
	res, err := Execute(e.mem, sh, testProduct)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastPathed != 1 {
		t.Fatalf("FastPathed = %d, want 1", res.FastPathed)
	}
	if res.FLOPs == 0 {
		t.Fatal("fast path dropped FLOP accounting")
	}
	if after := e.pool.MaterializedBytes(); after != before {
		t.Fatalf("fast path materialized %d bytes", after-before)
	}
	for _, v := range e.readF32(out, 9) {
		if v != 0 {
			t.Fatal("fast path output not zero")
		}
	}
}

func TestFastPathMatchesRealComputeFLOPs(t *testing.T) {
	// The duration model depends on FLOPs being identical between the dry
	// run and a real run.
	run := func(materialize bool) int64 {
		e := newTestEnv(t)
		in := e.alloc(4*64, gpumem.PTERead)
		w := e.alloc(4*64*16, gpumem.PTERead)
		out := e.alloc(4*1024, gpumem.PTERead|gpumem.PTEWrite)
		if materialize {
			data := make([]float32, 64)
			for i := range data {
				data[i] = float32(i)
			}
			e.writeF32viaPA(in, data)
		}
		sh := e.buildShader(testProduct, []Instr{{
			Op: OpGemmTile, Src0: in, Src1: w, Dst: out,
			P: [10]uint32{4, 16, 16, 0, 4},
		}})
		res, err := Execute(e.mem, sh, testProduct)
		if err != nil {
			t.Fatal(err)
		}
		return res.FLOPs
	}
	if dry, real := run(false), run(true); dry != real {
		t.Fatalf("dry-run FLOPs %d != real FLOPs %d", dry, real)
	}
}

func TestProductMismatchFaults(t *testing.T) {
	e := newTestEnv(t)
	sh := e.buildShader(testProduct, []Instr{{Op: OpNop}})
	if _, err := Execute(e.mem, sh, testProduct+1); err == nil {
		t.Fatal("cross-SKU shader executed")
	} else if _, ok := err.(*Fault); !ok {
		t.Fatalf("error %v is not a Fault", err)
	}
}

func TestTranslationFault(t *testing.T) {
	e := newTestEnv(t)
	if _, err := Execute(e.mem, 0x7F000000, testProduct); err == nil {
		t.Fatal("unmapped shader executed")
	}
}

func TestExecPermissionRequired(t *testing.T) {
	e := newTestEnv(t)
	// Build the shader into a region mapped WITHOUT exec.
	size := uint64(HeaderSize + InstrSize)
	va := e.alloc(size, gpumem.PTERead|gpumem.PTEWrite)
	buf := make([]byte, size)
	EncodeHeader(Header{ProductID: testProduct, NumInstr: 1}, buf)
	(&Instr{Op: OpNop}).Encode(buf[HeaderSize:])
	pa, _, _ := e.mem.Walker.Translate(va)
	e.pool.Write(pa, buf)
	if _, err := Execute(e.mem, va, testProduct); err == nil {
		t.Fatal("shader in non-executable region executed")
	}
}

func TestIllegalOpcodeFaults(t *testing.T) {
	e := newTestEnv(t)
	sh := e.buildShader(testProduct, []Instr{{Op: Op(999)}})
	if _, err := Execute(e.mem, sh, testProduct); err == nil {
		t.Fatal("illegal opcode executed")
	}
}

func TestAddAndCopyAndScale(t *testing.T) {
	e := newTestEnv(t)
	a := e.alloc(4*4, gpumem.PTERead)
	b := e.alloc(4*4, gpumem.PTERead)
	sum := e.alloc(4*4, gpumem.PTERead|gpumem.PTEWrite)
	cp := e.alloc(4*4, gpumem.PTERead|gpumem.PTEWrite)
	sc := e.alloc(4*4, gpumem.PTERead|gpumem.PTEWrite)
	e.writeF32viaPA(a, []float32{1, 2, 3, 4})
	e.writeF32viaPA(b, []float32{10, 20, 30, 40})
	sh := e.buildShader(testProduct, []Instr{
		{Op: OpAdd, Src0: a, Src1: b, Dst: sum, P: [10]uint32{4}},
		{Op: OpCopy, Src0: sum, Dst: cp, P: [10]uint32{4}},
		{Op: OpScale, Src0: cp, Dst: sc, P: [10]uint32{4, math.Float32bits(0.5)}},
	})
	if _, err := Execute(e.mem, sh, testProduct); err != nil {
		t.Fatal(err)
	}
	got := e.readF32(sc, 4)
	want := []float32{5.5, 11, 16.5, 22}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pipeline out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDisassemble(t *testing.T) {
	e := newTestEnv(t)
	in := e.alloc(4*9, gpumem.PTERead)
	w := e.alloc(4*9, gpumem.PTERead)
	out := e.alloc(4*9, gpumem.PTERead|gpumem.PTEWrite)
	sh := e.buildShader(testProduct, []Instr{
		{Op: OpConvTile, Src0: in, Src1: w, Dst: out, P: [10]uint32{1, 3, 3, 1, 3, 1, 1, 0, 1}},
		{Op: OpSoftmax, Src0: out, Dst: out, P: [10]uint32{9}},
		{Op: OpGemmTile, Src0: in, Src1: w, Dst: out, P: [10]uint32{1, 3, 3, 0, 1, 1}},
	})
	// Read the raw stream bytes back via the page table.
	pa, _, _ := e.mem.Walker.Translate(sh)
	raw := make([]byte, HeaderSize+3*InstrSize)
	e.pool.Read(pa, raw)
	text, err := Disassemble(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conv.tile", "softmax", "gemm.tile", "+=", "cores="} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestDisassembleBadStream(t *testing.T) {
	if _, err := Disassemble([]byte("garbage")); err == nil {
		t.Fatal("garbage disassembled")
	}
	// Valid header claiming more instructions than the stream holds.
	hdr := make([]byte, HeaderSize)
	EncodeHeader(Header{ProductID: 1, NumInstr: 10}, hdr)
	if _, err := Disassemble(hdr); err == nil {
		t.Fatal("truncated stream disassembled")
	}
}

func TestFormatInstrAllOps(t *testing.T) {
	for _, op := range []Op{OpNop, OpConvTile, OpDWConvTile, OpGemmTile, OpBiasAct,
		OpPoolMax, OpPoolAvg, OpAdd, OpCopy, OpSoftmax, OpScale, Op(99)} {
		in := Instr{Op: op}
		if FormatInstr(&in) == "" {
			t.Fatalf("empty format for %v", op)
		}
	}
}

// TestMalformedInstrFaults feeds the interpreter shader streams no compiler
// emits. Shader bytes arrive inside recordings, so every row must fail its
// job with a *Fault: no panic, and, because every buffer is sized only
// after its range translates, no more than 1 MiB allocated.
func TestMalformedInstrFaults(t *testing.T) {
	e := newTestEnv(t)
	data := e.alloc(gpumem.PageSize, gpumem.PTERead|gpumem.PTEWrite)
	ones := make([]float32, gpumem.PageSize/4)
	for i := range ones {
		ones[i] = 1
	}
	e.writeF32viaPA(data, ones)
	const unmapped = gpumem.VA(0x4000000000)
	op := func(o Op, p ...uint32) Instr {
		in := Instr{Op: o, Src0: data, Src1: data, Dst: data}
		copy(in.P[:], p)
		return in
	}
	to := func(in Instr, src0, dst gpumem.VA) Instr {
		in.Src0, in.Dst = src0, dst
		return in
	}
	for _, tc := range []struct {
		name     string
		numInstr uint32 // the header's count, when not 1
		in       Instr
		reason   string // what the fault must name
	}{
		{"shader-count-0xffffffff", 0xFFFFFFFF, op(OpNop), "translation fault"},
		{"shader-count-4194304", 1 << 22, op(OpNop), "translation fault"},
		{"conv-stride-0", 0, op(OpConvTile, 1, 4, 4, 1, 3, 0, 0, 0, 1), "stride 0"},
		{"conv-window-0", 0, op(OpConvTile, 1, 4, 4, 1, 0, 1, 0, 0, 1), "window size 0"},
		{"conv-window-exceeds-padded-input", 0, op(OpConvTile, 1, 4, 4, 1, 7, 1, 1, 0, 1), "window 7 exceeds"},
		{"conv-reversed-tile", 0, op(OpConvTile, 1, 4, 4, 2, 3, 1, 0, 1, 0), "reversed"},
		{"conv-input-over-maxelems", 0, op(OpConvTile, 2, 65536, 65536, 1, 1, 1, 0, 0, 1), "input plane"},
		{"conv-filter-over-maxelems", 0, op(OpConvTile, 65536, 1, 1, 1, 256, 1, 128, 0, 1), "input or filter"},
		{"conv-output-plane-over-maxelems", 0, op(OpConvTile, 1, 1, 1, 1, 1, 1, 1<<20, 0, 1), "output plane"},
		{"conv-tile-over-maxelems", 0, op(OpConvTile, 1, 4, 4, 1, 1, 1, 0, 0, 1<<30), "channels x"},
		{"conv-unmapped-input-65535x65535", 0, to(op(OpConvTile, 1, 65535, 65535, 1, 1, 1, 0, 0, 1), unmapped, data), "translation fault"},
		{"conv-unmapped-output-40001x40001", 0, to(op(OpConvTile, 1, 1, 1, 1, 1, 1, 20000, 0, 1), data, unmapped), "translation fault"},
		{"dwconv-stride-0", 0, op(OpDWConvTile, 1, 4, 4, 3, 0, 0, 0, 1), "stride 0"},
		{"dwconv-window-exceeds-padded-input", 0, op(OpDWConvTile, 1, 4, 4, 7, 1, 1, 0, 1), "window 7 exceeds"},
		{"dwconv-reversed-tile", 0, op(OpDWConvTile, 2, 4, 4, 3, 1, 0, 1, 0), "reversed"},
		{"pool-stride-0", 0, op(OpPoolMax, 1, 4, 4, 2, 0, 0, 0, 1), "stride 0"},
		{"pool-window-exceeds-padded-input", 0, op(OpPoolAvg, 1, 4, 4, 7, 1, 1, 0, 1), "window 7 exceeds"},
		{"pool-reversed-tile", 0, op(OpPoolMax, 2, 4, 4, 2, 2, 0, 1, 0), "reversed"},
		{"pool-unmapped-output-40001x40001", 0, to(op(OpPoolMax, 1, 1, 1, 1, 1, 20000, 0, 1), data, unmapped), "translation fault"},
		{"gemm-reversed-tile", 0, op(OpGemmTile, 4, 4, 4, 2, 1, 0), "reversed"},
		{"gemm-b-over-maxelems", 0, op(OpGemmTile, 1, 1<<20, 1<<20, 0, 1, 0), "B of"},
		{"gemm-unmapped-output-1024x1024", 0, to(op(OpGemmTile, 1024, 1024, 1, 0, 1024, 0), data, unmapped), "translation fault"},
		{"biasact-zero-channels", 0, op(OpBiasAct, 16, 0, 0), "over 0 channels"},
		{"biasact-count-below-channels", 0, op(OpBiasAct, 2, 4, 0), "2 elements over 4"},
		{"softmax-zero-count", 0, op(OpSoftmax, 0), "no elements"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := e.buildShader(testProduct, []Instr{tc.in})
			if tc.numInstr != 0 {
				pa, _, _ := e.mem.Walker.Translate(sh)
				e.pool.Write32(pa+12, tc.numInstr)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, err = Execute(e.mem, sh, testProduct)
				return err
			}()
			runtime.ReadMemStats(&after)
			var f *Fault
			if !errors.As(err, &f) || !strings.Contains(f.Reason, tc.reason) {
				t.Fatalf("got %v, want a *Fault naming %q", err, tc.reason)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("allocated %d bytes before faulting (%v)", grew, err)
			}
		})
	}
}
