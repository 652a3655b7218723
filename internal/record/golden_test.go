package record

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/trace"
)

// TestRecordingGolden pins the full record pipeline end to end: the exact
// recording bytes and HMAC seal of deterministic record runs are hashed
// against values committed from the original serial memory-sync
// implementation. MNIST is pinned under Naive and OursMDS, every other
// benchmark model and Micro under OursMDS. This is the proof that the
// dirty-tracked capture, the parallel encoder, and the pooled codecs change
// no observable byte: the recording, its dumps, and its seal are
// bit-identical to the slow path. Regenerate with GRT_UPDATE_GOLDEN=1 after
// an intentional format change.
//
// Every meta-only recording also checks the echo property the memsync codec
// relies on: each job's client→cloud dump is byte-identical to its
// cloud→client dump. After job j both directions hold the cloud's metastate
// at j XOR its metastate at j−1, since the GPU never writes metastate.
func TestRecordingGolden(t *testing.T) {
	type row struct {
		v     Variant
		model *mlfw.Model
	}
	rows := []row{{Naive, mlfw.MNIST()}, {OursMDS, mlfw.MNIST()}}
	for _, m := range []*mlfw.Model{mlfw.AlexNet(), mlfw.MobileNet(), mlfw.SqueezeNet(),
		mlfw.ResNet12(), mlfw.VGG16(), mlfw.Micro()} {
		rows = append(rows, row{OursMDS, m})
	}
	got := map[string]string{}
	for _, r := range rows {
		res, err := Run(Config{
			Variant: r.v, Model: r.model, SKU: mali.G71MP8,
			Network: netsim.WiFi, SessionKey: testKey,
			ClientSeed: 42, InjectMispredictionAt: -1,
		})
		if err != nil {
			t.Fatalf("record %s/%v: %v", r.model.Name, r.v, err)
		}
		blob, err := res.Recording.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		key := strings.ToLower(r.model.Name) + "/" + r.v.String()
		sum := sha256.Sum256(blob)
		got[key+"/recording"] = hex.EncodeToString(sum[:])
		got[key+"/seal"] = hex.EncodeToString(res.Signed.MAC[:])
		if r.v.MetaOnly() {
			checkEchoDumps(t, key, res)
		}
	}

	checkGolden(t, "recording_golden.json", got)
}

// TestCheckpointGolden pins the checkpoints a session hands OnCheckpoint at
// every job boundary: per model, a SHA-256 over every checkpoint's job and
// memsync fingerprints (SyncOutFP, SyncInFP), and one over every marshalled
// payload, in order. A resumed session checks its re-derived fingerprints
// against a persisted checkpoint's, so however syncer.metaFP computes them,
// the values must stay these. MNIST, VGG16 and Micro are recorded under
// OursMDS. Regenerate with GRT_UPDATE_GOLDEN=1 after an intentional format
// change.
func TestCheckpointGolden(t *testing.T) {
	got := map[string]string{}
	for _, m := range []*mlfw.Model{mlfw.MNIST(), mlfw.VGG16(), mlfw.Micro()} {
		fps, payloads := sha256.New(), sha256.New()
		n := 0
		var cerr error
		_, err := Run(Config{
			Variant: OursMDS, Model: m, SKU: mali.G71MP8,
			Network: netsim.WiFi, SessionKey: testKey,
			ClientSeed: 42, InjectMispredictionAt: -1,
			OnCheckpoint: func(cp *ckpt.Checkpoint) {
				var b [24]byte
				binary.LittleEndian.PutUint64(b[0:], uint64(cp.Job))
				binary.LittleEndian.PutUint64(b[8:], cp.SyncOutFP)
				binary.LittleEndian.PutUint64(b[16:], cp.SyncInFP)
				fps.Write(b[:])
				blob, err := cp.MarshalBinary()
				if err != nil {
					cerr = err
					return
				}
				payloads.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(blob))))
				payloads.Write(blob)
				n++
			},
		})
		if err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("record %s: %v", m.Name, err)
		}
		key := strings.ToLower(m.Name) + "/" + OursMDS.String()
		got[key+"/checkpoints"] = strconv.Itoa(n)
		got[key+"/fingerprints"] = hex.EncodeToString(fps.Sum(nil))
		got[key+"/payloads"] = hex.EncodeToString(payloads.Sum(nil))
	}
	checkGolden(t, "checkpoint_golden.json", got)
}

// checkGolden compares got with testdata/name, or writes it there when
// GRT_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GRT_UPDATE_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with GRT_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s, golden %s", k, got[k], w)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, produced %d", len(want), len(got))
	}
}

// checkEchoDumps asserts that every job's client→cloud dump equals the
// cloud→client dump that started it.
func checkEchoDumps(t *testing.T, key string, res *Result) {
	t.Helper()
	var toClient, toCloud [][]byte
	for _, e := range res.Recording.Events {
		switch e.Kind {
		case trace.KDumpToClient:
			toClient = append(toClient, e.Dump)
		case trace.KDumpToCloud:
			toCloud = append(toCloud, e.Dump)
		}
	}
	if len(toClient) != res.Stats.Jobs || len(toCloud) != res.Stats.Jobs {
		t.Fatalf("%s: %d/%d dumps for %d jobs", key, len(toClient), len(toCloud), res.Stats.Jobs)
	}
	echoes := 0
	for j := range toCloud {
		if bytes.Equal(toCloud[j], toClient[j]) {
			echoes++
		} else {
			t.Errorf("%s: job %d's client→cloud dump (%d B) differs from its cloud→client dump (%d B)",
				key, j, len(toCloud[j]), len(toClient[j]))
		}
	}
	t.Logf("%s: %d of %d client→cloud dumps echo their cloud→client dump", key, echoes, res.Stats.Jobs)
}
