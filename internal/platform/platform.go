// Package platform runs many record sessions on one discrete-event engine:
// N GPUs' worth of sessions (RecordAll), and the fleet drill (Drill).
//
// The record pipeline itself stays single-GPU and strictly sequential — that
// is the paper's faithful model (§5, queue length 1). What platform adds is
// the layer above it, the part the paper's evaluation ran by hand N times
// over: it hosts the sessions on one timesim.Engine, so they share a single
// virtual timeline and, on a parallel engine, execute their same-timestamp
// events on all host cores. Each session runs unchanged as an engine process
// with a process clock, which is what keeps every per-GPU recording
// byte-identical to the recording a lone single-GPU session would have
// produced.
package platform

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"gpurelay/internal/record"
	"gpurelay/internal/timesim"
)

// SessionKey derives a deterministic per-GPU session key from a platform
// seed. Multi-GPU scenarios need one key per GPU session (each recording is
// signed independently); deriving them from one seed keeps a whole platform
// run reproducible from a single value.
func SessionKey(seed uint64, gpu int) []byte {
	var buf [8]byte
	h := sha256.New()
	h.Write([]byte("grt-platform-session"))
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(gpu))
	h.Write(buf[:])
	return h.Sum(nil)
}

// RecordAll runs one record session per GPU, each as a process on eng
// keyed by its GPU index, and returns the per-GPU results in GPU order:
// cfgs[i] configures GPU i's session, and its Clock is overwritten with that
// session's process clock. On a parallel engine the sessions'
// same-timestamp events run concurrently, so cross-session shared state
// would be both a data race and a determinism leak — RecordAll therefore
// rejects configs that share a History or an Obs scope. (Nil History and
// nil Obs are fine: each session then gets its own fresh speculation
// history and stays uninstrumented.)
//
// The first session error aborts the run; sessions that already completed
// are discarded with it, keeping the all-or-nothing contract a multi-GPU
// recording artifact needs.
func RecordAll(ctx context.Context, eng timesim.Engine, cfgs []record.Config) ([]*record.Result, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("platform: no session configs: a platform needs at least one GPU")
	}
	if err := checkDisjoint(cfgs); err != nil {
		return nil, err
	}
	results := make([]*record.Result, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		eng.Go(uint64(i), func(tm timesim.Time) error {
			cfg.Clock = tm
			res, err := record.RunContext(ctx, cfg)
			if err != nil {
				return fmt.Errorf("platform: gpu %d session: %w", i, err)
			}
			results[i] = res
			return nil
		})
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return results, nil
}

// checkDisjoint rejects session configs sharing mutable state across GPUs.
func checkDisjoint(cfgs []record.Config) error {
	for i := range cfgs {
		for j := i + 1; j < len(cfgs); j++ {
			if cfgs[i].History != nil && cfgs[i].History == cfgs[j].History {
				return fmt.Errorf("platform: sessions %d and %d share a speculation history; "+
					"parallel sessions need disjoint state", i, j)
			}
			if cfgs[i].Obs != nil && cfgs[i].Obs == cfgs[j].Obs {
				return fmt.Errorf("platform: sessions %d and %d share an obs scope; "+
					"parallel sessions need disjoint state", i, j)
			}
		}
	}
	return nil
}
