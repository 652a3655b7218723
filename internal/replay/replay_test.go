package replay

import (
	"errors"
	"math"
	"testing"
	"time"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
)

var testKey = []byte("grt-session-key-0123456789abcdef")

func recordModel(t *testing.T, m *mlfw.Model, variant record.Variant) *record.Result {
	t.Helper()
	res, err := record.Run(record.Config{
		Variant: variant, Model: m, SKU: mali.G71MP8,
		Network: netsim.WiFi, SessionKey: testKey,
		ClientSeed: 42, InjectMispredictionAt: -1,
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return res
}

// newReplayDevice builds a fresh "client device" with its own pool and GPU —
// a different flush seed stands in for a different boot.
func newReplayDevice(poolSize uint64, seed uint64) (*mali.GPU, *tee.Controller, *timesim.Clock) {
	clock := timesim.NewClock()
	pool := gpumem.NewPool(poolSize)
	gpu := mali.New(mali.G71MP8, pool, clock, seed)
	return gpu, tee.NewController(gpu), clock
}

func mnistWeights(t *testing.T, rec *trace.Recording) map[string][]float32 {
	t.Helper()
	// Deterministic weights, same generator as mlfw.Runtime.InitWeights
	// would produce — but here we build them region by region from the
	// recording, as the TEE (which owns the parameters) does.
	weights := map[string][]float32{}
	state := uint64(7)*2654435761 + 1
	next := func() float32 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return (float32(state%2048)/1024 - 1) / 8
	}
	for _, r := range rec.RegionsOfKind(gpumem.KindWeights) {
		data := make([]float32, r.Size/4)
		for i := range data {
			data[i] = next()
		}
		weights[r.Name] = data
	}
	return weights
}

func mnistInput() []float32 {
	in := make([]float32, 28*28)
	for i := range in {
		in[i] = float32((i * 37) % 256)
	}
	return in
}

// nativeMNIST runs the same model natively (full GPU stack, same weights
// generator, same input) and returns the output — the ground truth replay
// must reproduce.
func nativeMNIST(t *testing.T) []float32 {
	t.Helper()
	clock := timesim.NewClock()
	pool := gpumem.NewPool(256 << 20)
	gpu := mali.New(mali.G71MP8, pool, clock, 5)
	dev, err := kbase.Probe(kbase.NewDirectBus(gpu, clock), kbase.NewStdKernel(clock), pool)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mlfw.NewRuntime(dev, clock, mlfw.MNIST(), mlfw.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt.InitWeights(7)
	if err := rt.SetInput(mnistInput()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(kbase.SyncHooks{}); err != nil {
		t.Fatal(err)
	}
	return rt.Output()
}

func TestReplayReproducesNativeInference(t *testing.T) {
	// The end-to-end GR-T promise: record once (dry run on zeros in the
	// cloud), then replay in the TEE with real parameters and fresh
	// input, and get the same result native execution would produce.
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 999)
	r, err := New(res.Signed, testKey, gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range mnistWeights(t, r.Recording()) {
		if err := r.SetWeightsF32(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetInputF32(mnistInput()); err != nil {
		t.Fatal(err)
	}
	rr, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.OutputF32()
	if err != nil {
		t.Fatal(err)
	}
	want := nativeMNIST(t)
	if len(got) != len(want) {
		t.Fatalf("output lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-5 {
			t.Fatalf("output[%d] = %v, native = %v (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
	if rr.Delay <= 0 || rr.VerifiedReads == 0 {
		t.Fatalf("result: %+v", rr)
	}
	if rr.SkippedNondet == 0 {
		t.Fatal("no nondeterministic reads skipped; LATEST_FLUSH_ID handling lost")
	}
}

func TestReplayDifferentInputsDifferentOutputs(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	run := func(in []float32) []float32 {
		gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 1000)
		r, err := New(res.Signed, testKey, gpu, ctrl, clock)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range mnistWeights(t, r.Recording()) {
			if err := r.SetWeightsF32(name, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.SetInputF32(in); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		out, err := r.OutputF32()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run(mnistInput())
	in2 := make([]float32, 28*28)
	for i := range in2 {
		in2[i] = float32((i * i) % 199)
	}
	b := run(in2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("replay ignores injected input")
	}
}

func TestReplayRepeatedOnSameDevice(t *testing.T) {
	// §2.3: once recorded, replay recurs repeatedly. Run the same
	// recording three times on one device.
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 1001)
	r, err := New(res.Signed, testKey, gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInputF32(mnistInput()); err != nil {
		t.Fatal(err)
	}
	var prev []float32
	for i := 0; i < 3; i++ {
		if _, err := r.Run(); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		out, err := r.OutputF32()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for j := range out {
				if out[j] != prev[j] {
					t.Fatalf("replay %d diverged at %d", i, j)
				}
			}
		}
		prev = out
	}
}

func TestReplayRejectsWrongSKU(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	clock := timesim.NewClock()
	gpu := mali.New(mali.G52MP2, gpumem.NewPool(res.Recording.PoolSize), clock, 1)
	ctrl := tee.NewController(gpu)
	if _, err := New(res.Signed, testKey, gpu, ctrl, clock); err == nil {
		t.Fatal("recording for G71 accepted on G52")
	}
}

func TestReplayRejectsTamperedRecording(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	res.Signed.Payload[100] ^= 1
	gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 1)
	if _, err := New(res.Signed, testKey, gpu, ctrl, clock); err == nil {
		t.Fatal("tampered recording accepted")
	}
}

func TestReplayRejectsSmallSecureMemory(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	clock := timesim.NewClock()
	gpu := mali.New(mali.G71MP8, gpumem.NewPool(1<<20), clock, 1)
	ctrl := tee.NewController(gpu)
	if _, err := New(res.Signed, testKey, gpu, ctrl, clock); err == nil {
		t.Fatal("replay fit in less secure memory than recorded (§3.1 limitation)")
	}
}

func TestReplayIsolatesGPUAndScrubs(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 2)
	r, err := New(res.Signed, testKey, gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInputF32(mnistInput()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// After the session the GPU is back with the OS, fully scrubbed.
	if ctrl.Owner() != tee.NormalWorld {
		t.Fatal("GPU still secure after replay")
	}
	if got, _ := ctrl.ReadReg(tee.NormalWorld, mali.SHADER_READY_LO); got != 0 {
		t.Fatal("GPU state survived the replay session")
	}
}

func TestReplayFasterThanRecordOnDevice(t *testing.T) {
	// Replay must be in the tens-of-milliseconds class for MNIST
	// (Table 2: 4.8 ms), nowhere near the recording's seconds.
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 3)
	r, err := New(res.Signed, testKey, gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInputF32(mnistInput()); err != nil {
		t.Fatal(err)
	}
	rr, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Delay > 100*time.Millisecond {
		t.Fatalf("replay took %v, want O(5ms)", rr.Delay)
	}
	if rr.Delay >= res.Stats.RecordingDelay/100 {
		t.Fatalf("replay (%v) not far below recording (%v)", rr.Delay, res.Stats.RecordingDelay)
	}
}

func TestReplayWorksFromAllVariantsRecordings(t *testing.T) {
	for _, v := range record.Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			res := recordModel(t, mlfw.MNIST(), v)
			gpu, ctrl, clock := newReplayDevice(res.Recording.PoolSize, 10+uint64(v))
			r, err := New(res.Signed, testKey, gpu, ctrl, clock)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SetInputF32(mnistInput()); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatalf("replay of %v recording: %v", v, err)
			}
		})
	}
}

func TestNonStrictReplayCollectsMismatches(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	// Corrupt one recorded read value (but not the signature check: we
	// rebuild the signed blob through the session key).
	rec, err := trace.Verify(res.Signed, testKey)
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Kind == trace.KRead && e.Reg == mali.THREAD_MAX_THREADS && touched == 0 {
			e.Value ^= 0xFFFF
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("no THREAD_MAX_THREADS read in recording")
	}
	signed, err := trace.Sign(rec, testKey)
	if err != nil {
		t.Fatal(err)
	}
	gpu, ctrl, clock := newReplayDevice(rec.PoolSize, 55)
	r, err := New(signed, testKey, gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	r.Obs = obs.NewScope("mismatch", obs.Options{})
	// Strict mode: the divergence is fatal.
	if _, err := r.Run(); err == nil {
		t.Fatal("strict replay ignored a read mismatch")
	}
	// Non-strict mode: the run completes and the mismatch is reported.
	r.Strict = false
	out, err := r.Run()
	if err != nil {
		t.Fatalf("non-strict replay failed: %v", err)
	}
	// Each Run published its mismatch, the failed one too.
	if got := out.Obs.Counter(obs.MReplayMismatches); out.ReadMismatches != 1 || got != 2 {
		t.Fatalf("ReadMismatches = %d, counter after both runs = %d; want 1 and 2", out.ReadMismatches, got)
	}
	if len(r.Mismatches) != 1 {
		t.Fatalf("%d mismatches collected, want 1", len(r.Mismatches))
	}
	if r.Mismatches[0].Reg != mali.THREAD_MAX_THREADS {
		t.Fatalf("mismatch at %v", r.Mismatches[0].Reg)
	}
}

// TestOpenRejectsMismatchedChain: every segment of a chain replays through
// the first segment's region map and pool, so a later segment that was
// sealed with another map, pool size or GPU product is refused even though
// it passes its own audit. The untouched chain opens and replays.
func TestOpenRejectsMismatchedChain(t *testing.T) {
	res := recordModel(t, mlfw.MNIST(), record.OursMDS)
	segs, recs, err := res.Segments(mlfw.MNIST().LayerBoundaries())
	if err != nil {
		t.Fatal(err)
	}
	v, err := Open(testKey, segs...)
	if err != nil {
		t.Fatalf("intact chain: %v", err)
	}
	if v.PoolSize() != res.Recording.PoolSize {
		t.Fatalf("chain pool size %d, recording's %d", v.PoolSize(), res.Recording.PoolSize)
	}
	gpu, ctrl, clock := newReplayDevice(v.PoolSize(), 3)
	r, err := v.Bind(gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInputF32(mnistInput()); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Run(); err != nil || got.Events != len(res.Recording.Events) {
		t.Fatalf("intact chain replayed %d of %d events: %v", got.Events, len(res.Recording.Events), err)
	}

	cases := []struct {
		name   string
		mutate func(seg *trace.Recording)
		want   error
	}{
		{"renamed region", func(seg *trace.Recording) {
			seg.Regions = append([]trace.RegionInfo(nil), seg.Regions...)
			seg.Regions[0].Name += "-renamed"
		}, grterr.ErrBadRecording},
		{"doubled pool", func(seg *trace.Recording) { seg.PoolSize *= 2 }, grterr.ErrBadRecording},
		{"other product", func(seg *trace.Recording) { seg.ProductID = mali.G52MP2.ProductID }, grterr.ErrSKUMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seg := *recs[1]
			tc.mutate(&seg)
			if err := seg.Audit(); err != nil {
				t.Fatalf("mutated segment fails its own audit: %v", err)
			}
			resealed, err := trace.Sign(&seg, testKey)
			if err != nil {
				t.Fatal(err)
			}
			chain := append([]*trace.Signed{segs[0], resealed}, segs[2:]...)
			if _, err := Open(testKey, chain...); !errors.Is(err, tc.want) {
				t.Fatalf("Open: %v, want %v", err, tc.want)
			}
		})
	}
}
