package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
)

// TestDrillTimelineGolden pins the engine timeline of four instrumented
// Micro drills: per drill its counts, a SHA-256 over its seals and one over
// its EngineTrace's (TS, Key) pop order. On the serial engine it also pins
// (TS, Key, Seq, Depth); on the parallel engine Seq and Depth are
// engine-local (see EngineTrace). The other drill tests compare the two
// engines within one build; this golden pins the exact event order across
// builds. It also pins what the admission layer leaves behind: a SHA-256 of
// the fleet registry's Prometheus text and one of the device inventory, and
// on the serial engine one of the flight journal (on the parallel engine
// the journal's order depends on scheduling). Regenerate with
// GRT_UPDATE_GOLDEN=1 only after an intentional change to the order in which
// the engine pops events or to what admission records.
func TestDrillTimelineGolden(t *testing.T) {
	serial := DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 3, Sessions: 8, Instrument: true}
	parallel, cached, dying := serial, serial, serial
	parallel.Parallel = true
	cached.Sessions, cached.Workloads, cached.Shards = 64, 8, 2
	dying.HealthPlan = plan(t, "dying-gpu")

	got := map[string]string{}
	for _, c := range []struct {
		name string
		o    DrillOptions
	}{{"serial", serial}, {"parallel", parallel}, {"cached", cached}, {"dying-gpu", dying}} {
		res := runDrill(t, c.o)
		if n := res.EngineTrace.Dropped(); n != 0 {
			t.Fatalf("%s: engine trace dropped %d events", c.name, n)
		}
		counts, err := json.Marshal(res.DrillCounts)
		if err != nil {
			t.Fatal(err)
		}
		seals := sha256.New()
		for _, s := range res.Seals {
			seals.Write(s[:])
		}
		order, full := sha256.New(), sha256.New()
		for _, e := range res.EngineTrace.Events() {
			b := binary.LittleEndian.AppendUint64(nil, uint64(e.TS))
			b = binary.LittleEndian.AppendUint64(b, e.Key)
			order.Write(b)
			b = binary.LittleEndian.AppendUint64(b, e.Seq)
			full.Write(binary.LittleEndian.AppendUint64(b, uint64(e.Depth)))
		}
		var fleet bytes.Buffer
		if err := res.Fleet.WritePrometheus(&fleet); err != nil {
			t.Fatal(err)
		}
		devices, err := json.Marshal(res.Service.Devices())
		if err != nil {
			t.Fatal(err)
		}
		got[c.name+"/fleet"] = hexSum(fleet.Bytes())
		got[c.name+"/devices"] = hexSum(devices)
		if !c.o.Parallel {
			var flight bytes.Buffer
			if err := res.Flight.WriteJSONL(&flight); err != nil {
				t.Fatal(err)
			}
			got[c.name+"/flight"] = hexSum(flight.Bytes())
		}
		got[c.name+"/counts"] = string(counts)
		got[c.name+"/seals"] = hex.EncodeToString(seals.Sum(nil))
		got[c.name+"/trace"] = hex.EncodeToString(order.Sum(nil))
		if !c.o.Parallel {
			got[c.name+"/trace-seq-depth"] = hex.EncodeToString(full.Sum(nil))
		}
	}

	path := filepath.Join("testdata", "drill_timeline_golden.json")
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

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
