package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gpurelay/internal/mali"
	"gpurelay/internal/platform"
	"gpurelay/internal/trace"
)

// TestBoundedReadRecording: a length prefix is a claim, not an allocation.
// An 8-byte file declaring a 256 MiB payload chunk is refused after
// allocating in proportion to the file, not to the claim.
func TestBoundedReadRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.grt")
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint32([]byte("GRTB"), 256<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readRecording(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an 8-byte file declaring a 256 MiB chunk was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading an 8-byte file allocated %d bytes", grew)
	}
}

// TestAuditCompareRefusesSealedBadRecording: a correctly sealed recording
// that fails the structural audit (here a zero pool size) is refused before
// compare walks it; the same recording with a plausible pool is read.
func TestAuditCompareRefusesSealedBadRecording(t *testing.T) {
	key := []byte("grtdiag-audit-test-key-012345678")
	write := func(poolSize uint64) string {
		s, err := trace.Sign(&trace.Recording{
			Workload: "probe", ProductID: mali.G71MP8.ProductID, PoolSize: poolSize,
		}, key)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := platform.WriteBundle(&b, []platform.Entry{{Payload: s.Payload, MAC: s.MAC[:], Key: key}}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "probe.grt")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := readRecording(write(1 << 20)); err != nil {
		t.Fatalf("plausible recording refused: %v", err)
	}
	_, err := readRecording(write(0))
	var audit *trace.AuditError
	if !errors.As(err, &audit) {
		t.Fatalf("zero-pool recording: err = %v, want an *trace.AuditError", err)
	}
}
