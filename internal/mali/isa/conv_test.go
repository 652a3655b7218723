package isa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpurelay/internal/fuzzcorpus"
	"gpurelay/internal/gpumem"
)

// convCase is one convolution or depthwise-convolution tile with its full
// operands: outC filters (channels, for a depthwise one) of which the tile
// computes [oc0, oc1).
type convCase struct {
	dw                            bool
	inC, inH, inW, k, stride, pad uint32
	outC, oc0, oc1                uint32
	input, weights                []float32
}

// convGeomBytes is how many leading bytes of a fuzz input decodeConvCase
// reads as geometry; the rest become operand values.
const convGeomBytes = 10

// convSpecials are the operand values a value byte below 16 selects: signed
// zeros, a NaN, both infinities, subnormals and values large enough for
// sums to overflow. Bytes from 16 up give small multiples of 1/16.
var convSpecials = [16]float32{
	0, float32(math.Copysign(0, -1)), 0, // [2], the NaN, is set by init
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1, -1, 0.5, -2.25, 3, 0.1, -0.7,
	1e-40, -1e-40, 3e38, -3e38,
}

func init() {
	// The NaN operand is the host's default NaN, the one Inf*0 and Inf-Inf
	// produce, so a sum never meets two NaNs with different bits. When it
	// does, the add keeps the bits of whichever NaN the instruction takes
	// first, and Go may swap a commutative add's operands from one build
	// to the next (a fuzzing build does): that NaN's sign is a property of
	// the build, not of the kernel.
	convSpecials[2] = convSpecials[3] * convSpecials[0]
}

// decodeConvCase maps arbitrary bytes onto a valid tile: k 1-11, stride
// 1-4, pad 0..k-1, inC 1-4, an input at least as large as the window, and
// a tile of 1..outC channels starting anywhere.
func decodeConvCase(data []byte) convCase {
	var geom [convGeomBytes]byte
	copy(geom[:], data)
	c := convCase{dw: geom[0]&1 == 1, inC: 1}
	if !c.dw {
		c.inC = 1 + uint32(geom[1])%4
	}
	c.k = 1 + uint32(geom[2])%11
	c.stride = 1 + uint32(geom[3])%4
	c.pad = uint32(geom[4]) % c.k
	lo := uint32(1)
	if c.k > 2*c.pad {
		lo = c.k - 2*c.pad
	}
	c.inH = lo + uint32(geom[5])%12
	c.inW = lo + uint32(geom[6])%12
	c.outC = 1 + uint32(geom[7])%6
	c.oc0 = uint32(geom[8]) % c.outC
	c.oc1 = c.oc0 + 1 + uint32(geom[9])%(c.outC-c.oc0)

	inN, wN := c.inC*c.inH*c.inW, c.outC*c.inC*c.k*c.k
	if c.dw {
		inN, wN = c.outC*c.inH*c.inW, c.outC*c.k*c.k
	}
	vals := data[min(len(data), convGeomBytes):]
	value := func(i int) float32 {
		if len(vals) == 0 {
			return 0
		}
		b := vals[i%len(vals)]
		if b < 16 {
			return convSpecials[b]
		}
		return float32(int8(b)) / 16
	}
	c.input = make([]float32, inN)
	for i := range c.input {
		c.input[i] = value(i)
	}
	c.weights = make([]float32, wN)
	for i := range c.weights {
		c.weights[i] = value(int(inN) + i)
	}
	return c
}

func (c *convCase) String() string {
	kind := "conv"
	if c.dw {
		kind = "dwconv"
	}
	return fmt.Sprintf("%s inC=%d in=%dx%d k=%d stride=%d pad=%d tile=[%d,%d) of %d",
		kind, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, c.oc0, c.oc1, c.outC)
}

// checkConvMatchesReference executes c's tile through the interpreter and
// compares every output's bits with the reference loop's, that the
// channels outside the tile are untouched, and the FLOPs count.
func checkConvMatchesReference(t *testing.T, c convCase) {
	t.Helper()
	e := newTestEnv(t)
	outH, outW := refOutDim(c.inH, c.k, c.stride, c.pad), refOutDim(c.inW, c.k, c.stride, c.pad)
	plane := outH * outW
	src := e.alloc(uint64(len(c.input))*4, gpumem.PTERead)
	w := e.alloc(uint64(len(c.weights))*4, gpumem.PTERead)
	dst := e.alloc(uint64(c.outC*plane)*4, gpumem.PTERead|gpumem.PTEWrite)
	e.writeF32viaPA(src, c.input)
	e.writeF32viaPA(w, c.weights)
	const sentinel = 0x7F7F7F7F
	fill := make([]float32, c.outC*plane)
	for i := range fill {
		fill[i] = math.Float32frombits(sentinel)
	}
	e.writeF32(dst, fill)

	in := Instr{Op: OpConvTile, Src0: src, Src1: w, Dst: dst,
		P: [10]uint32{c.inC, c.inH, c.inW, c.outC, c.k, c.stride, c.pad, c.oc0, c.oc1}}
	tileC := c.oc1 - c.oc0
	var want []float32
	flops := int64(tileC) * int64(plane) * int64(c.inC) * int64(c.k) * int64(c.k) * 2
	if c.dw {
		in = Instr{Op: OpDWConvTile, Src0: src, Src1: w, Dst: dst,
			P: [10]uint32{c.outC, c.inH, c.inW, c.k, c.stride, c.pad, c.oc0, c.oc1}}
		want = refDWConv(c.input[c.oc0*c.inH*c.inW:], c.weights[c.oc0*c.k*c.k:],
			c.inH, c.inW, c.k, c.stride, c.pad, tileC)
		flops = int64(tileC) * int64(plane) * int64(c.k) * int64(c.k) * 2
	} else {
		want = refConv(c.input, c.weights[c.oc0*c.inC*c.k*c.k:],
			c.inC, c.inH, c.inW, c.k, c.stride, c.pad, tileC)
	}
	var res Result
	if err := exec(e.mem, &in, &res); err != nil {
		t.Fatalf("%v: %v", &c, err)
	}
	if res.FLOPs != flops {
		t.Fatalf("%v: FLOPs %d, reference %d", &c, res.FLOPs, flops)
	}
	got := e.readF32(dst, int(c.outC*plane))
	for i, v := range got {
		bits := math.Float32bits(v)
		ch := uint32(i) / plane
		if ch < c.oc0 || ch >= c.oc1 {
			if bits != sentinel {
				t.Fatalf("%v: channel %d outside the tile written: out[%d] = %#x", &c, ch, i, bits)
			}
			continue
		}
		if r := math.Float32bits(want[uint32(i)-c.oc0*plane]); bits != r {
			t.Fatalf("%v: out[%d] (channel %d, y %d, x %d) = %#x (%v), reference %#x (%v)",
				&c, i, ch, uint32(i)%plane/outW, uint32(i)%outW, bits, v, r, math.Float32frombits(r))
		}
	}
}

// TestConvMatchesReference is the differential oracle for the blocked
// convolution kernel: every (k, stride) pair from 1-11 x 1-4, each pad
// below k, inC 1-4 and partial channel tiles, over operands mixing
// ordinary values with signed zeros, NaN, infinities and subnormals.
func TestConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := map[bool]int{}
	// Case i has k = 1 + i%11, stride = 1 + i/11%4 and pad = i/44 % k, so
	// every pad below k meets every (k, stride) pair; the rest is random.
	for i := 0; i < 11*4*11; i++ {
		data := make([]byte, convGeomBytes+64+rng.Intn(256))
		rng.Read(data)
		data[2], data[3], data[4] = byte(i%11), byte(i/11%4), byte(i/44)
		if i%5 == 0 { // one case in five has no special values
			for j := convGeomBytes; j < len(data); j++ {
				data[j] |= 16
			}
		}
		c := decodeConvCase(data)
		kinds[c.dw]++
		checkConvMatchesReference(t, c)
	}
	if kinds[true] < 100 || kinds[false] < 100 {
		t.Fatalf("%d conv and %d dwconv cases, want at least 100 of each", kinds[false], kinds[true])
	}
}

// convFuzzSeeds are FuzzConvMatchesReference's seed inputs: tiles shaped
// like MNIST's convolutions, a padded stride-2 depthwise tile, windows
// larger than their input, and a 1x1 kernel, alternating ordinary and
// special operand values.
func convFuzzSeeds() [][]byte {
	ordinary := make([]byte, 512)
	rand.New(rand.NewSource(2)).Read(ordinary)
	for i := range ordinary {
		ordinary[i] |= 16
	}
	specials := make([]byte, 96)
	for i := range specials {
		specials[i] = byte(i*7) % 32
	}
	geoms := [][convGeomBytes]byte{
		{0, 0, 4, 0, 0, 11, 11, 3, 0, 3}, // 1x16x16 k5, all 4 channels
		{0, 3, 4, 0, 0, 3, 3, 5, 2, 1},   // 4x8x8 k5, channels [2,4) of 6
		{1, 0, 2, 1, 1, 7, 6, 5, 1, 3},   // dwconv 8x7 k3 s2 p1, channels [1,5) of 6
		{0, 1, 6, 3, 3, 0, 0, 2, 0, 9},   // 2x1x1 k7 s4 p3, channel [0,1) of 3
		{1, 0, 10, 0, 10, 0, 3, 0, 0, 0}, // dwconv 1x4 k11 p10
		{0, 2, 0, 2, 0, 11, 5, 1, 1, 0},  // 3x12x6 k1 s3, channel [1,2) of 2
	}
	var seeds [][]byte
	for i, g := range geoms {
		vals := ordinary
		if i%2 == 1 {
			vals = specials
		}
		seeds = append(seeds, append(g[:], vals...))
	}
	return append(seeds, nil, []byte{1})
}

// FuzzConvMatchesReference checks the blocked kernel against the reference
// loops on arbitrary tiles and operand values.
func FuzzConvMatchesReference(f *testing.F) {
	for _, s := range convFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkConvMatchesReference(t, decodeConvCase(data))
	})
}

// TestUpdateFuzzCorpus writes convFuzzSeeds to testdata/fuzz when
// GRT_UPDATE_FUZZ_CORPUS is set.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Update() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.UpdateEnv)
	}
	for _, s := range convFuzzSeeds() {
		if err := fuzzcorpus.WriteSeed("FuzzConvMatchesReference", s); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkConvTile times one convolution instruction end to end through
// the interpreter (operand loads, kernel, store) with real operands, so the
// zero fast path never fires. ns/MAC divides by the tile's
// multiply-accumulates.
func BenchmarkConvTile(b *testing.B) {
	for _, bc := range []struct {
		name                          string
		inC, inH, inW, k, stride, pad uint32
		tileC                         uint32
	}{
		{"mnist-conv1", 1, 28, 28, 5, 1, 0, 4},
		{"mnist-conv2", 32, 12, 12, 5, 1, 0, 8},
		{"pad1-stride2", 16, 28, 28, 3, 2, 1, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := newTestEnv(b)
			outH := refOutDim(bc.inH, bc.k, bc.stride, bc.pad)
			outW := refOutDim(bc.inW, bc.k, bc.stride, bc.pad)
			rng := rand.New(rand.NewSource(3))
			operand := func(n uint32, flags gpumem.PTEFlag) gpumem.VA {
				va := e.alloc(uint64(n)*4, flags)
				data := make([]float32, n)
				for i := range data {
					data[i] = rng.Float32() - 0.5
				}
				e.writeF32viaPA(va, data)
				return va
			}
			in := Instr{Op: OpConvTile,
				Src0: operand(bc.inC*bc.inH*bc.inW, gpumem.PTERead),
				Src1: operand(bc.tileC*bc.inC*bc.k*bc.k, gpumem.PTERead),
				Dst:  e.alloc(uint64(bc.tileC*outH*outW)*4, gpumem.PTERead|gpumem.PTEWrite),
				P:    [10]uint32{bc.inC, bc.inH, bc.inW, bc.tileC, bc.k, bc.stride, bc.pad, 0, bc.tileC}}
			macs := float64(bc.tileC * outH * outW * bc.inC * bc.k * bc.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var res Result
				if err := exec(e.mem, &in, &res); err != nil {
					b.Fatal(err)
				}
				if res.FastPathed != 0 {
					b.Fatal("real operands took the zero fast path")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(macs*float64(b.N)), "ns/MAC")
		})
	}
}
