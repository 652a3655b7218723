package trace

import (
	"fmt"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
)

// The recording codec proves a payload is well-formed bytes; this file
// proves it describes a session the recorded driver stack could actually
// have produced. The HMAC seal authenticates the recorder, not the
// recording: a buggy or compromised recorder holds the session key and can
// seal arbitrary structure, so the replayer audits cross-field invariants —
// region-map geometry, event-field discipline, job/IRQ balance, dump
// containment — before feeding a recording to the real GPU.

// Audit caps: one slot per JOB_IRQ status bit, and a poll bound far above
// the driver's universal Max of 64 iterations but low enough that a hostile
// MaxIters cannot stall replay.
const (
	auditMaxSlots    = 16
	auditMaxPollIter = 1 << 16
	auditMaxDiags    = 32
	// auditMaxPool bounds the pool allocation a recording may demand from
	// the replayer. The largest evaluation workload (VGG16) needs well
	// under a gigabyte.
	auditMaxPool = 4 << 30
)

// A Diag is one structural-invariant violation found by Audit.
type Diag struct {
	// Event is the index of the offending event, or -1 for a
	// recording-level finding (header, region map).
	Event int
	// Check names the violated invariant: a stable, machine-matchable
	// token such as "region-overlap" or "irq-unmatched".
	Check string
	// Msg is the human-readable detail.
	Msg string
}

func (d Diag) String() string {
	if d.Event < 0 {
		return fmt.Sprintf("%s: %s", d.Check, d.Msg)
	}
	return fmt.Sprintf("%s at event %d: %s", d.Check, d.Event, d.Msg)
}

// AuditError reports the invariant violations an audit found. It wraps
// grterr.ErrBadRecording so callers reject it through the usual sentinel.
type AuditError struct {
	Diags []Diag
	// Truncated reports that the audit stopped collecting after
	// auditMaxDiags findings.
	Truncated bool
}

func (e *AuditError) Error() string {
	if len(e.Diags) == 0 {
		return "trace: audit failed"
	}
	s := fmt.Sprintf("trace: audit: %s", e.Diags[0])
	if n := len(e.Diags); n > 1 {
		suffix := ""
		if e.Truncated {
			suffix = "+"
		}
		s += fmt.Sprintf(" (and %d%s more)", n-1, suffix)
	}
	return s
}

func (e *AuditError) Unwrap() error { return grterr.ErrBadRecording }

// auditor accumulates diagnostics up to the cap.
type auditor struct {
	diags     []Diag
	truncated bool
}

func (a *auditor) add(event int, check, format string, args ...any) {
	if len(a.diags) >= auditMaxDiags {
		a.truncated = true
		return
	}
	a.diags = append(a.diags, Diag{Event: event, Check: check, Msg: fmt.Sprintf(format, args...)})
}

func (a *auditor) err() error {
	if len(a.diags) == 0 {
		return nil
	}
	return &AuditError{Diags: a.diags, Truncated: a.truncated}
}

// Audit checks the recording's cross-field invariants and returns nil or an
// *AuditError listing every violation found (up to a cap). It never
// allocates region payloads: dump events are checked through their parsed
// wire headers only.
//
// Audit is deliberately conservative: it only rejects structure the
// recording driver stack cannot emit, so every legitimate recording —
// including every recording in the test corpus — passes unchanged.
func (r *Recording) Audit() error {
	a := &auditor{}
	r.auditHeader(a)
	r.auditRegions(a)
	r.auditEvents(a)
	return a.err()
}

func (r *Recording) auditHeader(a *auditor) {
	// Replay sizes its secure pool from PoolSize, and a pool holds at
	// least one page.
	if r.PoolSize < gpumem.PageSize || r.PoolSize > auditMaxPool {
		a.add(-1, "pool-size", "pool size %d outside [%d, %d]", r.PoolSize, gpumem.PageSize, int64(auditMaxPool))
	}
}

// auditRegions checks the region map: every region inside the pool, no
// overflow, no duplicate names, no physically overlapping pair. The
// replayer injects input and harvests output through this map, so an
// overlapping or out-of-pool region is an out-of-bounds write primitive.
func (r *Recording) auditRegions(a *auditor) {
	names := make(map[string]int, len(r.Regions))
	type span struct {
		lo, hi uint64 // [lo, hi)
		idx    int
	}
	var spans []span
	for i := range r.Regions {
		reg := &r.Regions[i]
		if reg.Kind > gpumem.KindScratch {
			a.add(-1, "region-kind", "region %q has unknown kind %d", reg.Name, reg.Kind)
		}
		if j, dup := names[reg.Name]; dup {
			a.add(-1, "region-dup", "region %q declared at index %d and %d", reg.Name, j, i)
		} else {
			names[reg.Name] = i
		}
		pa := uint64(reg.PA)
		if reg.Size == 0 || reg.Size > r.PoolSize || pa > r.PoolSize-reg.Size {
			a.add(-1, "region-bounds", "region %q [%#x, +%d) outside %d-byte pool",
				reg.Name, pa, reg.Size, r.PoolSize)
			continue
		}
		spans = append(spans, span{lo: pa, hi: pa + reg.Size, idx: i})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				a.add(-1, "region-overlap", "regions %q and %q overlap physically",
					r.Regions[spans[i].idx].Name, r.Regions[spans[j].idx].Name)
			}
		}
	}
}

// auditEvents walks the log once, checking per-event field discipline and
// the cross-event job/IRQ balance: a completion interrupt for a slot with no
// outstanding submit cannot come from the recorded driver, which runs jobs
// strictly serialized.
func (r *Recording) auditEvents(a *auditor) {
	outstanding := [auditMaxSlots]int{}
	for i := range r.Events {
		e := &r.Events[i]
		switch e.Kind {
		case KRead, KWrite:
			r.auditNonPollFields(a, i, e)
			if e.Kind == KWrite && e.Value == mali.JSCommandStart {
				if slot, ok := jsCommandNextSlot(e.Reg); ok {
					outstanding[slot]++
				}
			}
		case KPoll:
			if e.IRQJob != 0 || e.IRQGPU != 0 || e.IRQMMU != 0 {
				a.add(i, "poll-irq-fields", "poll event carries IRQ lines")
			}
			if len(e.Dump) != 0 {
				a.add(i, "poll-dump", "poll event carries a %d-byte dump", len(e.Dump))
			}
			if e.MaxIters == 0 || e.MaxIters > auditMaxPollIter {
				a.add(i, "poll-max-iters", "poll bound %d outside (0, %d]", e.MaxIters, auditMaxPollIter)
			} else if e.Iters > e.MaxIters {
				a.add(i, "poll-iters", "poll ran %d of at most %d iterations", e.Iters, e.MaxIters)
			}
		case KIRQ:
			if e.Reg != 0 || e.Value != 0 {
				a.add(i, "irq-fields", "IRQ event carries register traffic")
			}
			if len(e.Dump) != 0 {
				a.add(i, "irq-dump", "IRQ event carries a %d-byte dump", len(e.Dump))
			}
			r.auditIRQBalance(a, i, e, &outstanding)
		case KDumpToClient, KDumpToCloud:
			r.auditNonPollFields(a, i, e)
			r.auditDump(a, i, e)
		default:
			a.add(i, "event-kind", "unknown event kind %d", uint8(e.Kind))
		}
	}
}

// auditNonPollFields flags poll/IRQ state on events whose kinds never carry
// it: the recorder fills only the fields its event kind defines, so stray
// state means the bytes were not produced by the recorder.
func (r *Recording) auditNonPollFields(a *auditor, i int, e *Event) {
	if e.DoneMask != 0 || e.DoneVal != 0 || e.MaxIters != 0 || e.Iters != 0 {
		a.add(i, "stray-poll-fields", "%s event carries polling state", e.Kind)
	}
	if e.IRQJob != 0 || e.IRQGPU != 0 || e.IRQMMU != 0 {
		a.add(i, "stray-irq-fields", "%s event carries IRQ lines", e.Kind)
	}
	if e.Kind != KDumpToClient && e.Kind != KDumpToCloud && len(e.Dump) != 0 {
		a.add(i, "stray-dump", "%s event carries a %d-byte dump", e.Kind, len(e.Dump))
	}
}

// auditIRQBalance matches job-completion interrupt bits against outstanding
// submits. JOB_IRQ status bits 0..15 report per-slot completion and bits
// 16..31 per-slot failure; either retires one submitted job on that slot.
func (r *Recording) auditIRQBalance(a *auditor, i int, e *Event, outstanding *[auditMaxSlots]int) {
	if e.IRQJob == 0 {
		return
	}
	for slot := 0; slot < auditMaxSlots; slot++ {
		done := e.IRQJob&(1<<uint(slot)) != 0
		failed := e.IRQJob&(1<<uint(16+slot)) != 0
		if !done && !failed {
			continue
		}
		if outstanding[slot] == 0 {
			a.add(i, "irq-unmatched", "job IRQ %#x reports slot %d with no outstanding submit",
				e.IRQJob, slot)
			continue
		}
		outstanding[slot]--
	}
}

// auditDump validates a dump event's wire header without materializing its
// payload: the header must parse under the default decode limits, and every
// declared region must land inside a region the map declares — the dump is
// what Restore writes into the replay pool, so containment here is bounds
// checking for those writes.
func (r *Recording) auditDump(a *auditor, i int, e *Event) {
	if len(e.Dump) == 0 {
		a.add(i, "dump-empty", "%s event carries no dump", e.Kind)
		return
	}
	regs, err := gpumem.WireInfo(e.Dump)
	if err != nil {
		a.add(i, "dump-header", "%v", err)
		return
	}
	for _, wr := range regs {
		if !r.dumpContained(wr) {
			a.add(i, "dump-bounds", "dump region %q [%#x, +%d) not contained in any mapped region",
				wr.Name, uint64(wr.PA), wr.DataLen)
		}
	}
}

// dumpContained reports whether a dump wire region lands inside some region
// of the map. Page-table pages are the one exception: the syncer emits a
// pseudo-region per live page-table page, allocated outside the declared
// map, so for those containment means exactly one page-aligned page inside
// the pool.
func (r *Recording) dumpContained(wr gpumem.WireRegion) bool {
	lo := uint64(wr.PA)
	n := uint64(wr.DataLen)
	if n == 0 {
		return true
	}
	if wr.Kind == gpumem.KindPageTable {
		return n == gpumem.PageSize && lo%gpumem.PageSize == 0 &&
			n <= r.PoolSize && lo <= r.PoolSize-n
	}
	for i := range r.Regions {
		reg := &r.Regions[i]
		if lo >= uint64(reg.PA) && n <= reg.Size && lo-uint64(reg.PA) <= reg.Size-n {
			return true
		}
	}
	return false
}

// jsCommandNextSlot decodes a register offset as some slot's JS_COMMAND or
// JS_COMMAND_NEXT register — the writes that submit a job.
func jsCommandNextSlot(reg mali.Reg) (int, bool) {
	const slotBase, slotStride = 0x1800, 0x80
	if reg < slotBase || reg >= slotBase+auditMaxSlots*slotStride {
		return 0, false
	}
	off := (reg - slotBase) % slotStride
	if off != mali.JS_COMMAND && off != mali.JS_COMMAND_NEXT {
		return 0, false
	}
	return int((reg - slotBase) / slotStride), true
}
