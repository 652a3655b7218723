package main

import (
	"fmt"

	"gpurelay"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali"
	"gpurelay/internal/platform"
	"gpurelay/internal/replay"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
)

// runPlatformReplay replays every per-GPU recording of a platform bundle,
// each on its own simulated GPU, hosted as processes of one discrete-event
// engine. Each recording is verified and audited under its bundled key
// before its pool is sized and a single event replays; the parallel engine
// replays same-timestamp work on all host cores with results identical to
// the serial engine.
func runPlatformReplay(entries []platform.Entry, sku *gpurelay.SKU, engine string, runs int) error {
	var eng timesim.Engine
	if engine == "parallel" {
		eng = timesim.NewParallelEngine()
	} else {
		eng = timesim.NewSerialEngine()
	}

	type gpuReplay struct {
		delay  float64 // ms, summed over runs
		events int
	}
	results := make([]gpuReplay, len(entries))
	for i := range entries {
		i := i
		e := entries[i]
		signed := &trace.Signed{Payload: e.Payload}
		if len(e.MAC) != len(signed.MAC) {
			return fmt.Errorf("gpu %d: recording MAC is %d bytes, want %d: %w",
				i, len(e.MAC), len(signed.MAC), gpurelay.ErrBadRecording)
		}
		copy(signed.MAC[:], e.MAC)
		eng.Go(uint64(i), func(tm timesim.Time) error {
			v, err := replay.Open(e.Key, signed)
			if err != nil {
				return fmt.Errorf("gpu %d: %w", i, err)
			}
			gpu := mali.New(sku, gpumem.NewPool(v.PoolSize()), tm, 99)
			rp, err := v.Bind(gpu, tee.NewController(gpu), tm)
			if err != nil {
				return fmt.Errorf("gpu %d: %w", i, err)
			}
			for run := 0; run < runs; run++ {
				res, err := rp.Run()
				if err != nil {
					return fmt.Errorf("gpu %d replay %d: %w", i, run, err)
				}
				results[i].delay += float64(res.Delay.Microseconds()) / 1000
				results[i].events = res.Events
			}
			return nil
		})
	}
	if err := eng.Run(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for i, r := range results {
		fmt.Printf("gpu %2d: verified and replayed ×%d, %.2f ms total, %d events each\n",
			i, runs, r.delay, r.events)
	}
	fmt.Printf("engine: %d events on the %s engine\n", eng.Events(), engine)
	return nil
}
