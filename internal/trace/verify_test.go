package trace

import (
	"errors"
	"testing"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
)

// Event indexes in the auditableRecording fixture.
const (
	evRead = iota
	evDump
	evSubmit
	evPoll
	evIRQ
)

// auditableRecording builds a minimal recording that satisfies every
// structural invariant: a well-formed region map, a real encoded dump
// contained in it, and a submit→poll→IRQ sequence with balanced job slots.
// Corruption tests mutate one aspect at a time and expect the matching
// Check token.
func auditableRecording(t testing.TB) *Recording {
	t.Helper()
	dump := encodeDump(t, 0x4000, 256)
	return &Recording{
		Workload:  "MNIST",
		ProductID: 0x60000001,
		PoolSize:  1 << 20,
		Regions: []RegionInfo{
			{Name: "cmds", Kind: gpumem.KindCommands, VA: 0x1000000, PA: 0x4000, Size: 256},
			{Name: "out", Kind: gpumem.KindOutput, VA: 0x2000000, PA: 0x8000, Size: 64},
		},
		Events: []Event{
			evRead:   {Kind: KRead, Fn: "kbase_job_hw_submit", Reg: mali.LATEST_FLUSH_ID, Value: 7},
			evDump:   {Kind: KDumpToClient, Fn: "memsync", Dump: dump},
			evSubmit: {Kind: KWrite, Fn: "kbase_job_hw_submit", Reg: mali.JSReg(1, mali.JS_COMMAND_NEXT), Value: mali.JSCommandStart},
			evPoll: {Kind: KPoll, Fn: "kbase_wait_ready", Reg: mali.JOB_IRQ_RAWSTAT,
				DoneMask: 1 << 1, DoneVal: 1 << 1, MaxIters: 64, Iters: 5, Value: 1 << 1},
			evIRQ: {Kind: KIRQ, Fn: "kbase_job_irq_handler", IRQJob: 1 << 1},
		},
	}
}

// encodeDump encodes a one-region snapshot at the given PA, sized n.
func encodeDump(t testing.TB, pa gpumem.PA, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	snap := &gpumem.Snapshot{Regions: []gpumem.RegionSnapshot{
		{Name: "cmds", Kind: gpumem.KindCommands, VA: 0x1000000, PA: pa, Data: data},
	}}
	enc, err := snap.Encode(nil, gpumem.EncodeOptions{})
	if err != nil {
		t.Fatalf("encoding fixture dump: %v", err)
	}
	return enc
}

func TestAuditAcceptsValidRecording(t *testing.T) {
	if err := auditableRecording(t).Audit(); err != nil {
		t.Fatalf("valid recording rejected: %v", err)
	}
}

// hasCheck reports whether err is an *AuditError containing the token.
func hasCheck(err error, check string) bool {
	var ae *AuditError
	if !errors.As(err, &ae) {
		return false
	}
	for _, d := range ae.Diags {
		if d.Check == check {
			return true
		}
	}
	return false
}

func TestAuditRejectsCorruptions(t *testing.T) {
	cases := []struct {
		name   string
		check  string
		mutate func(t *testing.T, r *Recording)
	}{
		{"zero pool", "pool-size", func(t *testing.T, r *Recording) {
			r.PoolSize = 0
		}},
		{"sub-page pool", "pool-size", func(t *testing.T, r *Recording) {
			r.PoolSize = gpumem.PageSize - 1
		}},
		{"oversized pool", "pool-size", func(t *testing.T, r *Recording) {
			r.PoolSize = (4 << 30) + 1
		}},
		{"unknown region kind", "region-kind", func(t *testing.T, r *Recording) {
			r.Regions[0].Kind = 200
		}},
		{"duplicate region name", "region-dup", func(t *testing.T, r *Recording) {
			r.Regions = append(r.Regions, RegionInfo{
				Name: "cmds", Kind: gpumem.KindInput, VA: 0x3000000, PA: 0x10000, Size: 64})
		}},
		{"region past pool end", "region-bounds", func(t *testing.T, r *Recording) {
			r.Regions[1].PA = gpumem.PA(r.PoolSize - 32)
		}},
		{"region size overflow", "region-bounds", func(t *testing.T, r *Recording) {
			r.Regions[1].Size = ^uint64(0) - 8
		}},
		{"overlapping regions", "region-overlap", func(t *testing.T, r *Recording) {
			r.Regions = append(r.Regions, RegionInfo{
				Name: "shadow", Kind: gpumem.KindScratch, VA: 0x3000000, PA: 0x4080, Size: 256})
		}},
		{"poll state on read", "stray-poll-fields", func(t *testing.T, r *Recording) {
			r.Events[evRead].MaxIters = 64
		}},
		{"irq lines on write", "stray-irq-fields", func(t *testing.T, r *Recording) {
			r.Events[evSubmit].IRQJob = 1
		}},
		{"dump on read", "stray-dump", func(t *testing.T, r *Recording) {
			r.Events[evRead].Dump = []byte{1, 2, 3}
		}},
		{"irq lines on poll", "poll-irq-fields", func(t *testing.T, r *Recording) {
			r.Events[evPoll].IRQGPU = 1
		}},
		{"dump on poll", "poll-dump", func(t *testing.T, r *Recording) {
			r.Events[evPoll].Dump = []byte{1}
		}},
		{"zero poll bound", "poll-max-iters", func(t *testing.T, r *Recording) {
			r.Events[evPoll].MaxIters = 0
		}},
		{"hostile poll bound", "poll-max-iters", func(t *testing.T, r *Recording) {
			r.Events[evPoll].MaxIters = 1 << 30
		}},
		{"iterations past bound", "poll-iters", func(t *testing.T, r *Recording) {
			r.Events[evPoll].Iters = r.Events[evPoll].MaxIters + 1
		}},
		{"register traffic on irq", "irq-fields", func(t *testing.T, r *Recording) {
			r.Events[evIRQ].Reg = mali.JOB_IRQ_RAWSTAT
			r.Events[evIRQ].Value = 1
		}},
		{"dump on irq", "irq-dump", func(t *testing.T, r *Recording) {
			r.Events[evIRQ].Dump = []byte{1}
		}},
		{"irq with no submit", "irq-unmatched", func(t *testing.T, r *Recording) {
			r.Events[evIRQ].IRQJob = 1 << 2 // slot 2 never submitted
		}},
		{"double completion", "irq-unmatched", func(t *testing.T, r *Recording) {
			r.Events = append(r.Events, Event{Kind: KIRQ, IRQJob: 1 << 1})
		}},
		{"failure irq with no submit", "irq-unmatched", func(t *testing.T, r *Recording) {
			r.Events[evIRQ].IRQJob = 1 << (16 + 3) // slot 3 failure bit
		}},
		{"empty dump event", "dump-empty", func(t *testing.T, r *Recording) {
			r.Events[evDump].Dump = nil
		}},
		{"garbage dump bytes", "dump-header", func(t *testing.T, r *Recording) {
			r.Events[evDump].Dump = []byte("GRMDjunkjunkjunk")
		}},
		{"dump outside region map", "dump-bounds", func(t *testing.T, r *Recording) {
			r.Events[evDump].Dump = encodeDump(t, 0x40000, 256)
		}},
		{"dump overruns its region", "dump-bounds", func(t *testing.T, r *Recording) {
			r.Events[evDump].Dump = encodeDump(t, 0x4000, 512)
		}},
		{"unknown event kind", "event-kind", func(t *testing.T, r *Recording) {
			r.Events = append(r.Events, Event{Kind: 99})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := auditableRecording(t)
			tc.mutate(t, r)
			err := r.Audit()
			if err == nil {
				t.Fatalf("corruption accepted")
			}
			if !errors.Is(err, grterr.ErrBadRecording) {
				t.Fatalf("audit error does not wrap ErrBadRecording: %v", err)
			}
			if !hasCheck(err, tc.check) {
				t.Fatalf("audit error lacks check %q: %v", tc.check, err)
			}
		})
	}
}

// Page-table dump pages are synthesized outside the declared region map; the
// audit accepts exactly one page-aligned page inside the pool and nothing
// else.
func TestAuditPageTableDumps(t *testing.T) {
	encodePT := func(pa gpumem.PA, n int) []byte {
		snap := &gpumem.Snapshot{Regions: []gpumem.RegionSnapshot{
			{Name: "pt@40000", Kind: gpumem.KindPageTable, VA: 0, PA: pa, Data: make([]byte, n)},
		}}
		enc, err := snap.Encode(nil, gpumem.EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	r := auditableRecording(t)
	r.Events[evDump].Dump = encodePT(0x40000, gpumem.PageSize)
	if err := r.Audit(); err != nil {
		t.Fatalf("page-aligned page-table dump rejected: %v", err)
	}
	for _, bad := range []struct {
		name string
		pa   gpumem.PA
		n    int
	}{
		{"misaligned", 0x40010, gpumem.PageSize},
		{"not one page", 0x40000, 2 * gpumem.PageSize},
		{"past pool", gpumem.PA(r.PoolSize), gpumem.PageSize},
	} {
		t.Run(bad.name, func(t *testing.T) {
			r := auditableRecording(t)
			r.Events[evDump].Dump = encodePT(bad.pa, bad.n)
			if err := r.Audit(); !hasCheck(err, "dump-bounds") {
				t.Fatalf("want dump-bounds, got %v", err)
			}
		})
	}
}

func TestAuditErrorReporting(t *testing.T) {
	r := auditableRecording(t)
	r.PoolSize = 0 // also invalidates both region bounds
	err := r.Audit()
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("not an AuditError: %v", err)
	}
	if len(ae.Diags) < 2 {
		t.Fatalf("expected multiple diagnostics, got %+v", ae.Diags)
	}
	if ae.Diags[0].Event != -1 {
		t.Fatalf("header finding should be recording-level, got event %d", ae.Diags[0].Event)
	}
	if ae.Error() == "" || ae.Diags[0].String() == "" {
		t.Fatal("empty diagnostic rendering")
	}
}

// The diagnostics list is bounded: a recording with thousands of violations
// yields a truncated report, not an unbounded allocation.
func TestAuditDiagCap(t *testing.T) {
	r := auditableRecording(t)
	for i := 0; i < 1000; i++ {
		r.Events = append(r.Events, Event{Kind: 99})
	}
	err := r.Audit()
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("not an AuditError: %v", err)
	}
	if len(ae.Diags) > auditMaxDiags || !ae.Truncated {
		t.Fatalf("diagnostics not capped: %d entries, truncated=%v", len(ae.Diags), ae.Truncated)
	}
}
