package replay

import (
	"math"
	"sync"
	"testing"

	"gpurelay/internal/fuzzcorpus"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/record"
	"gpurelay/internal/trace"
)

// The whole-pipeline harness: record MNIST once, then mutate the sealed
// payload AFTER the MAC — re-signing the mutated bytes under the session key
// — and drive the mutant through verify, audit, and a full replay. This is
// the key-holding-recorder threat model: the seal is valid, the structure is
// hostile, and nothing downstream may panic.
var (
	replayFuzzOnce    sync.Once
	replayFuzzPayload []byte
	replayFuzzErr     error
)

func replayFuzzRecording() ([]byte, error) {
	replayFuzzOnce.Do(func() {
		res, err := record.Run(record.Config{
			Variant: record.OursMDS, Model: mlfw.MNIST(), SKU: mali.G71MP8,
			Network: netsim.WiFi, SessionKey: testKey,
			ClientSeed: 42, InjectMispredictionAt: -1,
		})
		if err != nil {
			replayFuzzErr = err
			return
		}
		replayFuzzPayload = res.Signed.Payload
	})
	return replayFuzzPayload, replayFuzzErr
}

func FuzzReplayVerified(f *testing.F) {
	if _, err := replayFuzzRecording(); err != nil {
		f.Fatalf("recording fuzz base: %v", err)
	}
	f.Add(uint32(0), byte(0x01))
	f.Add(uint32(40), byte(0x80))
	f.Add(uint32(1<<16), byte(0xFF))
	f.Fuzz(func(t *testing.T, pos uint32, xor byte) {
		payload, err := replayFuzzRecording()
		if err != nil {
			t.Fatal(err)
		}
		if xor == 0 {
			xor = 0xFF
		}
		mut := append([]byte(nil), payload...)
		mut[int(pos)%len(mut)] ^= xor
		signed, err := trace.SignBytes(mut, testKey)
		if err != nil {
			t.Fatal(err)
		}
		gpu, ctrl, clock := newReplayDevice(256<<20, 99)
		r, err := New(signed, testKey, gpu, ctrl, clock)
		if err != nil {
			return // rejected at verify/audit — the expected common case
		}
		// The mutation survived parsing and auditing (e.g. it landed in a
		// dump payload or a don't-care field); the replay itself must still
		// fail closed rather than panic. The second Run replays from the
		// dumps the first one parsed and must end exactly the same way.
		res1, err1 := r.Run()
		out1, _ := r.OutputF32()
		res2, err2 := r.Run()
		out2, _ := r.OutputF32()
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("repeat Run: error %v, first Run %v", err2, err1)
		}
		if err1 == nil && (res1.Delay != res2.Delay || res1.Events != res2.Events ||
			res1.VerifiedReads != res2.VerifiedReads || !sameBits(out1, out2)) {
			t.Fatalf("repeat Run: %+v, first Run %+v", res2, res1)
		}
	})
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestUpdateFuzzCorpus writes the mutation-coordinate seeds; the recording
// itself is rebuilt by the harness, not stored.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Update() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.UpdateEnv)
	}
	for _, s := range []struct {
		pos uint32
		xor byte
	}{{0, 0x01}, {40, 0x80}, {1 << 16, 0xFF}} {
		if err := fuzzcorpus.WriteSeed("FuzzReplayVerified", s.pos, s.xor); err != nil {
			t.Fatal(err)
		}
	}
}
