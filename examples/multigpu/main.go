// Multi-GPU: record four sessions, one per simulated GPU, concurrently on
// the parallel discrete-event engine with platform.RecordAll, seal them into
// one bundle, then replay and verify every per-GPU recording — the
// fleet-scale flow the single-clock pipeline could not express.
//
// Determinism is the point: the parallel engine runs same-timestamp events on
// all host cores, yet every recording (and its HMAC seal) is byte-identical
// to what the serial engine produces. This example checks that, end to end.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/platform"
	"gpurelay/internal/record"
	"gpurelay/internal/replay"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
)

const (
	numGPU = 4
	seed   = 2026
)

func configs() []record.Config {
	cfgs := make([]record.Config, numGPU)
	for i := range cfgs {
		cfgs[i] = record.Config{
			Model: mlfw.MNIST(), SKU: mali.G71MP8, Network: netsim.WiFi,
			SessionKey:            platform.SessionKey(seed, i),
			ClientSeed:            uint64(i)*17 + 5,
			InjectMispredictionAt: -1,
			SessionID:             fmt.Sprintf("gpu-%d", i),
		}
	}
	return cfgs
}

func recordFleet(eng timesim.Engine) []*record.Result {
	results, err := platform.RecordAll(context.Background(), eng, configs())
	if err != nil {
		log.Fatalf("record: %v", err)
	}
	fmt.Printf("  %d sessions, %d engine events, %.1f s virtual time\n",
		len(results), eng.Events(), eng.Now().Seconds())
	return results
}

func main() {
	// Phase 1 — record the same four sessions on both engines. The serial
	// engine interleaves them one event at a time; the parallel engine runs
	// each timestamp's events on all host cores.
	fmt.Println("recording 4× MNIST on the serial engine...")
	serial := recordFleet(timesim.NewSerialEngine())
	fmt.Println("recording 4× MNIST on the parallel engine...")
	parallel := recordFleet(timesim.NewParallelEngine())
	for i := range serial {
		if serial[i].Signed.MAC != parallel[i].Signed.MAC {
			log.Fatalf("gpu %d: engines disagree — determinism broken", i)
		}
	}
	fmt.Println("  seals byte-identical across engines ✓")

	// Phase 2 — seal: bundle the per-GPU recordings into one artifact.
	// (One GPU would produce the classic grtrecord bundle, byte for byte.)
	entries := make([]platform.Entry, numGPU)
	for i, res := range parallel {
		entries[i] = platform.Entry{
			Payload: res.Signed.Payload,
			MAC:     res.Signed.MAC[:],
			Key:     platform.SessionKey(seed, i),
		}
	}
	var bundle bytes.Buffer
	if err := platform.WriteBundle(&bundle, entries); err != nil {
		log.Fatalf("bundle: %v", err)
	}
	fmt.Printf("sealed %d recordings into a %d-byte bundle\n", numGPU, bundle.Len())

	// Phase 3 — replay + verify: re-open the bundle, verify every recording
	// under its key, and replay each on its own GPU, again sharing one
	// parallel engine. A flipped bit anywhere fails verification.
	back, err := platform.ReadBundle(&bundle)
	if err != nil {
		log.Fatalf("bundle: %v", err)
	}
	// Each process fills its GPU's slot; the lines print in GPU order once
	// the engine is done, whatever order the processes ran in.
	eng := timesim.NewParallelEngine()
	replays := make([]replay.Result, len(back))
	for i, e := range back {
		i, e := i, e
		signed := &trace.Signed{Payload: e.Payload}
		copy(signed.MAC[:], e.MAC)
		eng.Go(uint64(i), func(tm timesim.Time) error {
			v, err := replay.Open(e.Key, signed)
			if err != nil {
				return fmt.Errorf("gpu %d: %w", i, err)
			}
			gpu := mali.New(mali.G71MP8, gpumem.NewPool(v.PoolSize()), tm, 99)
			rp, err := v.Bind(gpu, tee.NewController(gpu), tm)
			if err != nil {
				return fmt.Errorf("gpu %d: %w", i, err)
			}
			if replays[i], err = rp.Run(); err != nil {
				return fmt.Errorf("gpu %d: %w", i, err)
			}
			return nil
		})
	}
	if err := eng.Run(); err != nil {
		log.Fatalf("replay: %v", err)
	}
	for i, res := range replays {
		fmt.Printf("  gpu %d: verified, replayed %d events in %.2f ms (virtual)\n",
			i, res.Events, float64(res.Delay.Microseconds())/1000)
	}
	fmt.Println("all recordings verified and replayed ✓")
}
