package mlfw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mali/isa"
)

// TestInferenceGolden pins the bits the shader interpreter computes: the
// SHA-256 of MNIST's output (and of every activation buffer) with real
// weights on seeded inputs, and of the destination of one isa.Execute per
// kernel shape the models use. A faster kernel must leave every hash as it
// is. Regenerate with GRT_UPDATE_GOLDEN=1 only after an intentional change
// to the interpreter's arithmetic.
func TestInferenceGolden(t *testing.T) {
	got := map[string]string{}
	mnistGolden(t, got)
	kernelGolden(t, got)

	path := filepath.Join("testdata", "inference_golden.json")
	if os.Getenv("GRT_UPDATE_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with GRT_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s, golden %s — interpreter output bits changed", k, got[k], w)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, produced %d", len(want), len(got))
	}
}

func hashF32(data []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mnistGolden runs MNIST natively with InitWeights(7) on 8 seeded inputs.
func mnistGolden(t *testing.T, got map[string]string) {
	r := newRig(t, mali.G71MP8, 256<<20)
	m := MNIST()
	rt, err := NewRuntime(r.dev, r.clock, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt.InitWeights(7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		in := make([]float32, m.Buffers[m.Input].Elems)
		for j := range in {
			in[j] = float32(rng.Intn(256)) / 255
		}
		if err := rt.SetInput(in); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(kbase.SyncHooks{}); err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("mnist/input%d/output", i)] = hashF32(rt.Output())
		h := sha256.New()
		for ref, b := range m.Buffers {
			if b.Kind == gpumem.KindWeights {
				continue
			}
			raw := make([]byte, b.Bytes())
			r.pool.Read(rt.Region(BufRef(ref)).PA, raw)
			h.Write(raw)
		}
		got[fmt.Sprintf("mnist/input%d/activations", i)] = hex.EncodeToString(h.Sum(nil))
	}
}

// kernelCase is one instruction of the isa.Execute grid: operand sizes in
// elements and the instruction, whose Src0/Src1/Dst are filled in.
type kernelCase struct {
	name            string
	src0, src1, dst int
	in              isa.Instr
}

// kernelGolden executes one instruction per kernel shape over seeded
// operands, with a sprinkling of zeros and negative zeros, and hashes the
// whole destination buffer.
func kernelGolden(t *testing.T, got map[string]string) {
	cases := []kernelCase{
		{"alexnet-conv1-k11s4", 3 * 227 * 227, 96 * 3 * 11 * 11, 96 * 55 * 55, isa.Instr{
			Op: isa.OpConvTile, P: [10]uint32{3, 227, 227, 96, 11, 4, 0, 40, 46}}},
		{"conv-k3s1p1", 4 * 13 * 11, 7 * 4 * 3 * 3, 7 * 13 * 11, isa.Instr{
			Op: isa.OpConvTile, P: [10]uint32{4, 13, 11, 7, 3, 1, 1, 2, 7}}},
		{"mobilenet-dwconv-k3s2p1", 8 * 28 * 28, 8 * 3 * 3, 8 * 14 * 14, isa.Instr{
			Op: isa.OpDWConvTile, P: [10]uint32{8, 28, 28, 3, 2, 1, 2, 7}}},
		{"maxpool-k3s2p1", 3 * 15 * 15, 0, 3 * 8 * 8, isa.Instr{
			Op: isa.OpPoolMax, P: [10]uint32{3, 15, 15, 3, 2, 1, 0, 3}}},
		{"avgpool-k3s2p1", 3 * 15 * 15, 0, 3 * 8 * 8, isa.Instr{
			Op: isa.OpPoolAvg, P: [10]uint32{3, 15, 15, 3, 2, 1, 1, 3}}},
		{"gemm-accumulate", 6 * 7, 7 * 10, 6 * 10, isa.Instr{
			Op: isa.OpGemmTile, P: [10]uint32{6, 10, 7, 1, 5, 1}}},
	}
	for i, c := range cases {
		pool := gpumem.NewPool(16 << 20)
		pt, err := gpumem.NewPageTable(pool, gpumem.FormatLPAE)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + i)))
		next := gpumem.VA(0x10000000)
		mapF32 := func(n int, flags gpumem.PTEFlag, fill bool) gpumem.VA {
			size := (uint64(n)*4 + gpumem.PageSize - 1) &^ (gpumem.PageSize - 1)
			if size == 0 {
				size = gpumem.PageSize
			}
			pa, err := pool.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.MapRange(next, pa, size, flags); err != nil {
				t.Fatal(err)
			}
			if fill {
				raw := make([]byte, n*4)
				for j := 0; j < n; j++ {
					v := float32(rng.Intn(2048)-1024) / 512
					switch rng.Intn(16) {
					case 0:
						v = 0
					case 1:
						v = float32(math.Copysign(0, -1))
					}
					binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(v))
				}
				pool.Write(pa, raw)
			}
			va := next
			next += gpumem.VA(size + gpumem.PageSize)
			return va
		}
		in := c.in
		in.Src0 = mapF32(c.src0, gpumem.PTERead, true)
		if c.src1 > 0 {
			in.Src1 = mapF32(c.src1, gpumem.PTERead, true)
		}
		// The accumulating gemm reads its destination first.
		in.Dst = mapF32(c.dst, gpumem.PTERead|gpumem.PTEWrite, in.Op == isa.OpGemmTile)

		code := make([]byte, isa.HeaderSize+isa.InstrSize)
		isa.EncodeHeader(isa.Header{ProductID: 1, CoreCount: 1, NumInstr: 1}, code)
		in.Encode(code[isa.HeaderSize:])
		shPA, err := pool.Alloc(gpumem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		shVA := next
		if err := pt.MapRange(shVA, shPA, gpumem.PageSize, gpumem.PTERead|gpumem.PTEExec); err != nil {
			t.Fatal(err)
		}
		pool.Write(shPA, code)

		mem := isa.Mem{Pool: pool, Walker: gpumem.Walker{Pool: pool, Format: gpumem.FormatLPAE, Root: pt.Root()}}
		if _, err := isa.Execute(mem, shVA, 1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out, err := mem.LoadF32(in.Dst, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		got["isa/"+c.name] = hashF32(out)
	}
}
