package main

// The traced pass times each layer by calling its public functions from here,
// on the op's own outputs, instead of instrumenting the program. A recording
// is re-opened as a replayer opens it (trace.Verify, Audit), re-sealed as the
// recorder seals it (trace.Sign), and its two dump chains are pushed through
// the recorder's memory-sync path (CaptureState.Capture, Snapshot.Encode,
// the self-check gpumem.Decode, Restore). Every re-encoded dump and the
// re-sealed recording must reproduce the recorded bytes exactly, so the
// replica both times the layer and checks that it is the code that ran.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gpurelay"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
)

// sealed is a recording opened from its bundle.
type sealed struct {
	rec    *trace.Recording
	signed *trace.Signed
	key    []byte
}

// verify opens rec the way a replay session does: check the seal and parse
// (trace.Verify), then audit the structure.
func (o *opCtx) verify(rec *gpurelay.Recording) (*sealed, error) {
	payload, mac, key := rec.Bundle()
	s := &sealed{signed: &trace.Signed{Payload: payload}, key: key}
	copy(s.signed.MAC[:], mac)
	err := o.span("trace.verify", func() (err error) {
		s.rec, err = trace.Verify(s.signed, key)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := o.span("trace.audit", s.rec.Audit); err != nil {
		return nil, err
	}
	o.r.note("trace.events", float64(len(s.rec.Events)))
	o.r.note("trace.payload_kb", float64(len(payload))/1e3)
	return s, nil
}

// layers runs every replica on one op's fresh recording.
func (o *opCtx) layers(rec *gpurelay.Recording) error {
	s, err := o.verify(rec)
	if err != nil {
		return err
	}
	var again *trace.Signed
	err = o.span("trace.sign", func() (err error) {
		again, err = trace.Sign(s.rec, s.key)
		return err
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(again.Payload, s.signed.Payload) || again.MAC != s.signed.MAC {
		return fmt.Errorf("%s: re-sealing the recording gives different bytes", s.rec.Workload)
	}
	var dumps int
	var wire, raw int64
	for _, dir := range []trace.Kind{trace.KDumpToClient, trace.KDumpToCloud} {
		n, w, r, err := o.memsync(s.rec, dir)
		if err != nil {
			return err
		}
		dumps, wire, raw = dumps+n, wire+w, raw+r
	}
	o.r.note("gpumem.dumps", float64(dumps))
	o.r.note("gpumem.wire_kb", float64(wire)/1e3)
	o.r.note("gpumem.raw_kb", float64(raw)/1e3)
	if wire > 0 {
		o.r.note("gpumem.compress_ratio", float64(raw)/float64(wire))
	}
	return nil
}

// memsync pushes one direction's dump chain through the recorder's sync
// path. Each recorded dump is decoded to get the memory it describes, the
// regions whose bytes changed are written to a source pool (so dirty
// tracking sees what the recorder's pool saw), and then the timed steps run
// as the recorder runs them: capture, encode against the previous capture
// when the recorded dump is a delta, decode as the self-check, restore into
// the far side's pool.
func (o *opCtx) memsync(rec *trace.Recording, dir trace.Kind) (dumps int, wire, raw int64, err error) {
	src, dst := gpumem.NewPool(rec.PoolSize), gpumem.NewPool(rec.PoolSize)
	var cs gpumem.CaptureState
	var truth *gpumem.Snapshot
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Kind != dir {
			continue
		}
		next, err := gpumem.Decode(e.Dump, truth)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: event %d: %w", rec.Workload, i, err)
		}
		regions := stage(src, next, truth)
		if truth != nil {
			truth.Release()
		}
		truth = next

		var snap, back *gpumem.Snapshot
		var out []byte
		_ = o.span("gpumem.capture", func() error {
			snap = cs.Capture(src, regions, gpumem.MetastateOnly)
			return nil
		})
		var prev *gpumem.Snapshot
		if e.Dump[4]&1 != 0 { // the delta flag of the wire header
			prev = cs.Prev()
		}
		err = o.span("gpumem.encode", func() (err error) {
			out, err = snap.Encode(prev, gpumem.EncodeOptions{Delta: prev != nil, Compress: true})
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if !bytes.Equal(out, e.Dump) {
			return 0, 0, 0, fmt.Errorf("%s: event %d: dump re-encodes to different bytes (%d vs %d)",
				rec.Workload, i, len(out), len(e.Dump))
		}
		err = o.span("gpumem.decode", func() (err error) {
			back, err = gpumem.Decode(out, prev)
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		_ = o.span("gpumem.restore", func() error {
			back.Restore(dst)
			back.Release()
			return nil
		})
		cs.Commit(snap)
		dumps++
		wire += int64(len(out))
		raw += snap.RawBytes()
	}
	if truth != nil {
		truth.Release()
	}
	return dumps, wire, raw, nil
}

// stage writes the regions of next whose bytes differ from prev into pool
// and returns next's region list.
func stage(pool *gpumem.Pool, next, prev *gpumem.Snapshot) []*gpumem.Region {
	regions := make([]*gpumem.Region, len(next.Regions))
	for i := range next.Regions {
		r := &next.Regions[i]
		regions[i] = &gpumem.Region{Name: r.Name, Kind: r.Kind, VA: r.VA, PA: r.PA, Size: uint64(len(r.Data))}
		if prev != nil && i < len(prev.Regions) && prev.Regions[i].PA == r.PA &&
			bytes.Equal(prev.Regions[i].Data, r.Data) {
			continue
		}
		pool.Write(r.PA, r.Data)
	}
	return regions
}

// restoreChain is the replay side of memory sync: decode the recording's
// cloud-to-client dump chain and restore each dump, as every replay run does.
func (o *opCtx) restoreChain(rec *trace.Recording) error {
	pool := gpumem.NewPool(rec.PoolSize)
	var prev *gpumem.Snapshot
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Kind != trace.KDumpToClient {
			continue
		}
		var snap *gpumem.Snapshot
		err := o.span("gpumem.decode", func() (err error) {
			snap, err = gpumem.Decode(e.Dump, prev)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: event %d: %w", rec.Workload, i, err)
		}
		_ = o.span("gpumem.restore", func() error {
			snap.Restore(pool)
			return nil
		})
		if prev != nil {
			prev.Release()
		}
		prev = snap
	}
	if prev != nil {
		prev.Release()
	}
	return nil
}

// reference is the ground truth a replay must reproduce: native inference of
// seeded inputs on the normal-world stack (the mlfw runtime on a local GPU
// behind kbase.DirectBus), with the weights the replay is given.
type reference struct {
	rt      *mlfw.Runtime
	weights map[string][]float32 // by region name; empty for zero weights
	inputs  [][]float32
	outputs [][]float32
}

// newReference prepares m natively, fills its weights from weightSeed (0
// leaves them zero), and infers n inputs drawn from seed.
func newReference(m *gpurelay.Model, weightSeed uint64, seed int64, n int) (*reference, error) {
	clock := timesim.NewClock()
	pool := gpumem.NewPool(m.TotalBytes()*3/2 + 64<<20)
	gpu := mali.New(mali.G71MP8, pool, clock, 31)
	dev, err := kbase.Probe(kbase.NewDirectBus(gpu, clock), kbase.NewStdKernel(clock), pool)
	if err != nil {
		return nil, err
	}
	rt, err := mlfw.NewRuntime(dev, clock, m, mlfw.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ref := &reference{rt: rt, weights: map[string][]float32{}}
	if weightSeed != 0 {
		rt.InitWeights(weightSeed)
		for _, reg := range rt.Context().Regions() {
			if reg.Kind == gpumem.KindWeights {
				raw := make([]byte, reg.Size)
				pool.Read(reg.PA, raw)
				ref.weights[reg.Name] = f32s(raw)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		in := make([]float32, m.Buffers[m.Input].Elems)
		for j := range in {
			in[j] = float32(rng.Intn(256)) / 255
		}
		out, err := ref.infer(in)
		if err != nil {
			return nil, err
		}
		ref.inputs = append(ref.inputs, in)
		ref.outputs = append(ref.outputs, out)
	}
	return ref, nil
}

// infer runs one native inference.
func (ref *reference) infer(in []float32) ([]float32, error) {
	if err := ref.rt.SetInput(in); err != nil {
		return nil, err
	}
	if _, err := ref.rt.Run(kbase.SyncHooks{}); err != nil {
		return nil, err
	}
	return ref.rt.Output(), nil
}

func (ref *reference) setWeights(sess *gpurelay.ReplaySession) error {
	for name, w := range ref.weights {
		if err := sess.SetWeights(name, w); err != nil {
			return err
		}
	}
	return nil
}

// replay opens a fresh session on rec and checks that it reproduces the
// native output of the first input.
func (ref *reference) replay(c *gpurelay.Client, rec *gpurelay.Recording) error {
	sess, err := c.NewReplaySession(rec)
	if err != nil {
		return err
	}
	if err := ref.setWeights(sess); err != nil {
		return err
	}
	if err := sess.SetInput(ref.inputs[0]); err != nil {
		return err
	}
	if _, err := sess.Run(); err != nil {
		return err
	}
	out, err := sess.Output()
	if err != nil {
		return err
	}
	return sameOutput(out, ref.outputs[0])
}

// sameOutput requires bit-identical outputs: replay runs the very jobs
// native inference runs, so there is no tolerance to allow.
func sameOutput(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d values, native inference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("output[%d] = %v, native inference gives %v", i, got[i], want[i])
		}
	}
	return nil
}

func f32s(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}
