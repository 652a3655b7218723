package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gpurelay"
	"gpurelay/internal/platform"
	"gpurelay/internal/trace"
)

// TestPlatformReplayRejectsUnauditedPool: a multi-GPU bundle whose second
// entry is correctly sealed but declares a zero pool size fails with
// ErrBadRecording. The audit refuses it before any pool is sized, so the
// replay neither panics in the pool allocator nor exits the process.
func TestPlatformReplayRejectsUnauditedPool(t *testing.T) {
	key := []byte("grtreplay-platform-test-key-0123")
	seal := func(poolSize uint64) platform.Entry {
		s, err := trace.Sign(&trace.Recording{
			Workload: "probe", ProductID: gpurelay.MaliG71MP8.ProductID, PoolSize: poolSize,
		}, key)
		if err != nil {
			t.Fatal(err)
		}
		return platform.Entry{Payload: s.Payload, MAC: s.MAC[:], Key: key}
	}
	var bundle bytes.Buffer
	if err := platform.WriteBundle(&bundle, []platform.Entry{seal(1 << 20), seal(0)}); err != nil {
		t.Fatal(err)
	}
	entries, err := platform.ReadBundle(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	err = runPlatformReplay(entries, gpurelay.MaliG71MP8, "serial", 1)
	if !errors.Is(err, gpurelay.ErrBadRecording) || !strings.Contains(err.Error(), "gpu 1:") {
		t.Fatalf("zero-pool entry: %v, want gpu 1 refused with ErrBadRecording", err)
	}
}
