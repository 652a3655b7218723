package gpurelay

import (
	"fmt"
	"math"
	"testing"
)

// replayRun is everything one Run makes observable.
type replayRun struct {
	res     ReplayResult
	outBits []uint32
	metrics string
}

func runInstrumented(t *testing.T, sess *ReplaySession, id string) replayRun {
	t.Helper()
	sess.Instrument(NewScope(id))
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Output()
	if err != nil {
		t.Fatal(err)
	}
	r := replayRun{res: res, outBits: make([]uint32, len(out)), metrics: res.Obs.Prometheus()}
	for i, v := range out {
		r.outBits[i] = math.Float32bits(v)
	}
	return r
}

// TestReplayRepeatRunIdentical: a session's first Run parses the recording's
// dumps and every later Run replays from that cache, so three Runs on one
// session must each be indistinguishable from the single Run of a fresh
// session — result, output bits and telemetry — for a monolithic and a
// chained (per-layer) recording alike.
func TestReplayRepeatRunIdentical(t *testing.T) {
	client := NewClient("repeat-phone", MaliG71MP8)
	svc := NewService()
	mono, _, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := client.RecordSegmented(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float32, 28*28)
	for i := range input {
		input[i] = float32((i*17)%251) / 251
	}
	for _, tc := range []struct {
		name string
		open func() (*ReplaySession, error)
	}{
		{"plain", func() (*ReplaySession, error) { return client.NewReplaySession(mono) }},
		{"chained", func() (*ReplaySession, error) { return client.NewChainedReplaySession(seg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := func() *ReplaySession {
				sess, err := tc.open()
				if err != nil {
					t.Fatal(err)
				}
				state := uint64(7)
				for _, r := range sess.WeightRegions() {
					w := make([]float32, r.Elems)
					for i := range w {
						state ^= state << 13
						state ^= state >> 7
						state ^= state << 17
						w[i] = (float32(state%1024)/512 - 1) / 8
					}
					if err := sess.SetWeights(r.Name, w); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.SetInput(input); err != nil {
					t.Fatal(err)
				}
				return sess
			}
			want := runInstrumented(t, open(), "fresh")
			sess := open()
			for i := 0; i < 3; i++ {
				got := runInstrumented(t, sess, fmt.Sprintf("repeat-%d", i))
				g, w := got.res, want.res
				if g.Delay != w.Delay || g.Events != w.Events || g.VerifiedReads != w.VerifiedReads ||
					g.SkippedNondet != w.SkippedNondet || g.GPUBusy != w.GPUBusy || g.CPUTime != w.CPUTime {
					t.Fatalf("run %d: result %+v, fresh session %+v", i, g, w)
				}
				for k := range want.outBits {
					if got.outBits[k] != want.outBits[k] {
						t.Fatalf("run %d: output[%d] bits %#x, fresh session %#x", i, k, got.outBits[k], want.outBits[k])
					}
				}
				if got.metrics != want.metrics {
					t.Fatalf("run %d: telemetry differs from a fresh session:\n%s\nvs\n%s", i, got.metrics, want.metrics)
				}
			}
		})
	}
}
