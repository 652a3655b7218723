package main

import (
	"context"
	"fmt"
	"os"

	"gpurelay"
	"gpurelay/internal/platform"
	"gpurelay/internal/record"
	"gpurelay/internal/timesim"
)

// platformOpts is the engine-hosted recording configuration: -gpus sessions,
// one per GPU, run by platform.RecordAll on the -engine discrete-event
// engine.
type platformOpts struct {
	engine  string // "serial" | "parallel"
	gpus    int
	seed    uint64
	model   *gpurelay.Model
	sku     *gpurelay.SKU
	network gpurelay.Network
	variant gpurelay.Variant
	out     string
}

// runPlatform records opts.gpus sessions, one GPU each, on one discrete-event
// engine, and writes the per-GPU recordings as one bundle. For one GPU the
// bundle is wire-identical to the classic grtrecord layout; for N it is the
// "GRTP" container grtreplay replays per GPU. Session keys are derived from
// -seed (deterministically, so a rerun re-creates the identical bundle); as
// with the classic path, bundling keys is a demo-CLI convenience only.
func runPlatform(opts platformOpts) error {
	var eng timesim.Engine = timesim.NewSerialEngine()
	if opts.engine == "parallel" {
		eng = timesim.NewParallelEngine()
	}

	cfgs := make([]record.Config, opts.gpus)
	for i := range cfgs {
		cfgs[i] = record.Config{
			Variant: opts.variant, Model: opts.model, SKU: opts.sku,
			Network:               opts.network,
			SessionKey:            platform.SessionKey(opts.seed, i),
			ClientSeed:            opts.seed*1_000_003 + uint64(i)*7 + 1,
			InjectMispredictionAt: -1,
			SessionID:             fmt.Sprintf("gpu-%02d", i),
		}
	}
	fmt.Printf("recording %s on %d× %s over %s with %v (%s engine)...\n",
		opts.model.Name, opts.gpus, opts.sku.Name, opts.network.Name, opts.variant, opts.engine)
	results, err := platform.RecordAll(context.Background(), eng, cfgs)
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Printf("gpu %2d: %.1f s recording delay (virtual), %d GPU jobs, %.2f MB memory sync\n",
			i, res.Stats.RecordingDelay.Seconds(), res.Stats.Jobs,
			float64(res.Stats.MemSyncBytes)/1e6)
	}
	fmt.Printf("engine: %d events over %.1f s of virtual time\n",
		eng.Events(), eng.Now().Seconds())

	if opts.out == "" {
		return nil
	}
	entries := make([]platform.Entry, len(results))
	for i, res := range results {
		entries[i] = platform.Entry{
			Payload: res.Signed.Payload,
			MAC:     res.Signed.MAC[:],
			Key:     platform.SessionKey(opts.seed, i),
		}
	}
	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	if err := platform.WriteBundle(f, entries); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d-GPU recording bundle to %s\n", len(entries), opts.out)
	return nil
}
