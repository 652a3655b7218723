package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gpurelay"
	"gpurelay/internal/wire"
)

// chunks lays out a magic and length-prefixed chunks the way grtrecord's
// files have always been written.
func chunks(magic string, cs ...[]byte) []byte {
	out := []byte(magic)
	for _, c := range cs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		out = append(out, c...)
	}
	return out
}

// TestCheckpointFile covers grtrecord's files on disk. A checkpoint file
// whose first chunk declares one byte over wire.MaxChunk is
// refused, naming the bound, before anything that size is allocated. A
// session lost with resumes disabled writes its last checkpoint, which reads
// back and resumes to the recording an uninterrupted run makes; the
// checkpoint and the recording bundle keep their layouts byte for byte.
func TestCheckpointFile(t *testing.T) {
	dir := t.TempDir()

	t.Run("oversized chunk", func(t *testing.T) {
		path := filepath.Join(dir, "huge.grtc")
		f := binary.LittleEndian.AppendUint32([]byte("GRTC"), wire.MaxChunk+1)
		if err := os.WriteFile(path, append(f, "truncated"...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readCheckpoint(path)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(wire.MaxChunk)) {
			t.Fatalf("oversized chunk: %v, want an error naming the %d-byte bound", err, wire.MaxChunk)
		}
	})

	t.Run("round trip", func(t *testing.T) {
		plan, err := gpurelay.ParseFaultPlan("vm-crash")
		if err != nil {
			t.Fatal(err)
		}
		var last *gpurelay.Checkpoint
		_, _, err = gpurelay.NewClient("grtrecord-lost", gpurelay.MaliG71MP8).RecordResumable(
			context.Background(), gpurelay.NewService(), gpurelay.MNIST(), gpurelay.ResilienceOptions{
				Faults: plan, MaxResumes: -1,
				OnCheckpoint: func(cp *gpurelay.Checkpoint) { last = cp },
			})
		if !errors.Is(err, gpurelay.ErrSessionLost) || last == nil {
			t.Fatalf("lost session: %v, checkpoint %v", err, last != nil)
		}
		path := filepath.Join(dir, "mnist.grtc")
		if err := writeCheckpoint(path, last); err != nil {
			t.Fatal(err)
		}
		payload, mac, key := last.Bundle()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, chunks("GRTC", payload, mac, key)) {
			t.Fatalf("the checkpoint file's layout changed (%v)", err)
		}
		cp, err := readCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if cp.SessionID() != last.SessionID() || cp.Job() != last.Job() || cp.Events() != last.Events() {
			t.Fatalf("read back %s/%d/%d, wrote %s/%d/%d",
				cp.SessionID(), cp.Job(), cp.Events(), last.SessionID(), last.Job(), last.Events())
		}

		rec, _, err := gpurelay.NewClient("grtrecord-heir", gpurelay.MaliG71MP8).RecordResumable(
			context.Background(), gpurelay.NewService(), gpurelay.MNIST(), gpurelay.ResilienceOptions{Resume: cp})
		if err != nil {
			t.Fatalf("resume from the file: %v", err)
		}
		base, _, err := gpurelay.NewClient("grtrecord-base", gpurelay.MaliG71MP8).Record(
			gpurelay.NewService(), gpurelay.MNIST(), gpurelay.RecordOptions{})
		if err != nil {
			t.Fatal(err)
		}
		basePayload, _, _ := base.Bundle()
		if stitched, _, _ := rec.Bundle(); !bytes.Equal(stitched, basePayload) {
			t.Fatal("the resumed recording differs from an uninterrupted run")
		}

		out := filepath.Join(dir, "mnist.grt")
		if err := writeBundle(out, rec); err != nil {
			t.Fatal(err)
		}
		payload, mac, key = rec.Bundle()
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, chunks("GRTB", payload, mac, key)) {
			t.Fatalf("the recording bundle's layout changed (%v)", err)
		}
	})
}
