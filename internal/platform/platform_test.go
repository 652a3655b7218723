package platform

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/replay"
	"gpurelay/internal/shim"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
)

func drillConfigs(n int) []record.Config {
	cfgs := make([]record.Config, n)
	for i := range cfgs {
		cfgs[i] = record.Config{
			Model: mlfw.MNIST(), SKU: mali.G71MP8,
			Network:               netsim.Loopback,
			SessionKey:            SessionKey(7, i),
			ClientSeed:            uint64(i)*13 + 1,
			PoolSize:              drillPoolSize(mlfw.MNIST()),
			InjectMispredictionAt: -1,
		}
	}
	return cfgs
}

func TestRecordAllMultiGPU(t *testing.T) {
	for _, mk := range []struct {
		name string
		eng  func() timesim.Engine
	}{
		{"serial", func() timesim.Engine { return timesim.NewSerialEngine() }},
		{"parallel", func() timesim.Engine { return timesim.NewParallelEngine() }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			eng := mk.eng()
			results, err := RecordAll(context.Background(), eng, drillConfigs(3))
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 3 {
				t.Fatalf("%d results", len(results))
			}
			for i, res := range results {
				if res == nil || res.Signed == nil {
					t.Fatalf("gpu %d: missing result", i)
				}
				// Each session must verify under its own derived key.
				if _, err := trace.Verify(res.Signed, SessionKey(7, i)); err != nil {
					t.Fatalf("gpu %d: %v", i, err)
				}
			}
			// Different seeds ⇒ different recordings; same workload ⇒ same shape.
			if results[0].Signed.MAC == results[1].Signed.MAC {
				t.Fatal("distinct sessions produced identical seals")
			}
			if eng.Events() == 0 {
				t.Fatal("no events executed; sessions did not run as engine processes")
			}
		})
	}
}

func TestRecordAllMatchesStandaloneSession(t *testing.T) {
	// A platform session's recording must be byte-identical to the same
	// config run the classic way, on its own private Clock.
	cfgs := drillConfigs(2)
	standalone := make([][32]byte, len(cfgs))
	for i, cfg := range cfgs {
		res, err := record.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = res.Signed.MAC
	}
	results, err := RecordAll(context.Background(), timesim.NewParallelEngine(), drillConfigs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Signed.MAC != standalone[i] {
			t.Fatalf("gpu %d: platform recording diverged from standalone session", i)
		}
	}
}

// TestRecordAllRejectsSharedState checks that RecordAll refuses, before any
// session runs, configs that share a History or an Obs scope, and an empty
// config list.
func TestRecordAllRejectsSharedState(t *testing.T) {
	h, sc := shim.NewHistory(3), obs.NewScope("shared", obs.Options{})
	for name, edit := range map[string]func([]record.Config) []record.Config{
		"shared History": func(c []record.Config) []record.Config {
			c[0].History, c[1].History = h, h
			return c
		},
		"shared Obs": func(c []record.Config) []record.Config {
			c[0].Obs, c[1].Obs = sc, sc
			return c
		},
		"no configs": func([]record.Config) []record.Config { return nil },
	} {
		eng := timesim.NewSerialEngine()
		if _, err := RecordAll(context.Background(), eng, edit(drillConfigs(2))); err == nil {
			t.Errorf("%s accepted", name)
		}
		if eng.Events() != 0 {
			t.Errorf("%s: %d events ran before the refusal", name, eng.Events())
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	entries := []Entry{
		{Payload: []byte("payload-0"), MAC: bytes.Repeat([]byte{1}, 32), Key: []byte("k0")},
		{Payload: []byte("payload-1"), MAC: bytes.Repeat([]byte{2}, 32), Key: []byte("k1")},
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != multiMagic {
		t.Fatalf("multi bundle magic %q", got)
	}
	back, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("%d entries back", len(back))
	}
	for i := range back {
		if !bytes.Equal(back[i].Payload, entries[i].Payload) ||
			!bytes.Equal(back[i].MAC, entries[i].MAC) ||
			!bytes.Equal(back[i].Key, entries[i].Key) {
			t.Fatalf("entry %d corrupted in round trip", i)
		}
	}
}

func TestBundleSingleGPUWireCompatible(t *testing.T) {
	// A 1-entry platform bundle must be byte-identical to the classic
	// grtrecord layout: "GRTB" + three length-prefixed chunks.
	e := Entry{Payload: []byte("rec"), MAC: []byte("mac!"), Key: []byte("key")}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, []Entry{e}); err != nil {
		t.Fatal(err)
	}
	want := []byte("GRTB" +
		"\x03\x00\x00\x00" + "rec" +
		"\x04\x00\x00\x00" + "mac!" +
		"\x03\x00\x00\x00" + "key")
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("single-GPU bundle not wire-compatible:\n got %q\nwant %q", buf.Bytes(), want)
	}
	back, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !bytes.Equal(back[0].Payload, e.Payload) {
		t.Fatalf("single-GPU bundle round trip: %+v", back)
	}
}

// TestReadSingleOneEntry: ReadSingle returns the one entry of a classic
// bundle and refuses a multi-GPU container.
func TestReadSingleOneEntry(t *testing.T) {
	e := Entry{Payload: []byte("rec"), MAC: []byte("mac!"), Key: []byte("key")}
	for n, wantErr := range map[int]bool{1: false, 2: true} {
		var buf bytes.Buffer
		if err := WriteBundle(&buf, []Entry{e, e}[:n]); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSingle(&buf)
		if (err != nil) != wantErr {
			t.Fatalf("%d entries: err = %v", n, err)
		}
		if !wantErr && !bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("%d entries: payload %q", n, got.Payload)
		}
	}
}

func TestBundleRejectsGarbage(t *testing.T) {
	for name, blob := range map[string][]byte{
		"bad magic":     []byte("NOPE\x00\x00\x00\x00"),
		"truncated":     []byte("GRTB\xff\xff"),
		"huge chunk":    append([]byte("GRTB"), 0xff, 0xff, 0xff, 0x7f),
		"implausible n": append([]byte("GRTP"), 0xff, 0xff, 0xff, 0xff),
		"zero sessions": append([]byte("GRTP"), 0, 0, 0, 0),
	} {
		if _, err := ReadBundle(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBoundedReadBundleChunk: a 13-byte recording bundle or checkpoint file
// whose first chunk declares 1 GiB, within the chunk bound but far past the
// file, is refused after allocating about what the file holds.
func TestBoundedReadBundleChunk(t *testing.T) {
	read := map[string]func(*bytes.Reader) error{
		"GRTB": func(r *bytes.Reader) error { _, err := ReadBundle(r); return err },
		"GRTC": func(r *bytes.Reader) error { _, err := ReadCheckpoint(r); return err },
	}
	for magic, readFile := range read {
		f := append(binary.LittleEndian.AppendUint32([]byte(magic), 1<<30), "short"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readFile(bytes.NewReader(f))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte file declaring a 1 GiB chunk was accepted", magic, len(f))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: reading a %d-byte file allocated %d bytes", magic, len(f), grew)
		}
	}
}

// replayOne replays one bundle entry against a fresh GPU and checks it
// verifies and executes — the end-to-end half of the multi-GPU story.
func replayOne(t *testing.T, e Entry) {
	t.Helper()
	signed := &trace.Signed{Payload: e.Payload}
	copy(signed.MAC[:], e.MAC)
	rec, err := trace.Verify(signed, e.Key)
	if err != nil {
		t.Fatal(err)
	}
	pool := gpumem.NewPool(rec.PoolSize)
	clock := timesim.NewClock()
	gpu := mali.New(mali.G71MP8, pool, clock, 99)
	ctrl := tee.NewController(gpu)
	rp, err := replay.New(signed, e.Key, gpu, ctrl, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiGPURecordSealReplayVerify(t *testing.T) {
	results, err := RecordAll(context.Background(), timesim.NewParallelEngine(), drillConfigs(2))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, len(results))
	for i, res := range results {
		entries[i] = Entry{Payload: res.Signed.Payload, MAC: res.Signed.MAC[:], Key: SessionKey(7, i)}
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range back {
		replayOne(t, e)
	}
}
