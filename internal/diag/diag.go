// Package diag implements the paper's §3.4 "broader applicability" use of
// GR-T's recording machinery: remote debugging. By comparing a client's GPU
// register logs and memory dumps with a reference recording from the cloud,
// the cloud can detect and localize firmware malfunctions, driver erratum,
// or hardware faults — without shipping anyone a device.
package diag

import (
	"fmt"
	"strings"

	"gpurelay/internal/mali"
	"gpurelay/internal/trace"
)

// DivergenceKind classifies a mismatch between two interaction logs.
type DivergenceKind int

// Divergence kinds.
const (
	// DivLength: one log is a prefix of the other — an execution died or
	// hung partway.
	DivLength DivergenceKind = iota
	// DivStructure: different event kinds or registers at the same index
	// — control flow diverged.
	DivStructure
	// DivValue: same access, different GPU response — hardware or
	// firmware returned a different value.
	DivValue
	// DivTiming: same predicate outcome but wildly different polling
	// iteration counts — a performance anomaly, not a correctness one.
	DivTiming
)

var divNames = [...]string{
	DivLength: "length", DivStructure: "structure", DivValue: "value", DivTiming: "timing",
}

func (k DivergenceKind) String() string {
	if int(k) < len(divNames) {
		return divNames[k]
	}
	return fmt.Sprintf("divergence(%d)", int(k))
}

// Divergence is one detected difference between reference and subject logs.
type Divergence struct {
	Kind       DivergenceKind
	EventIndex int
	Reg        mali.Reg
	Fn         string
	Reference  uint32
	Observed   uint32
	Detail     string
}

func (d Divergence) String() string {
	return fmt.Sprintf("[%s] event %d %s (%s): ref %#x vs obs %#x %s",
		d.Kind, d.EventIndex, mali.RegName(d.Reg), d.Fn, d.Reference, d.Observed, d.Detail)
}

// Options tunes the comparison.
type Options struct {
	// MaxDivergences bounds the report (default 32).
	MaxDivergences int
}

// timingFactor flags a polling loop whose subject took more than this many
// times the reference's iterations.
const timingFactor = 8

// Report is the outcome of a log comparison.
type Report struct {
	EventsCompared int
	Divergences    []Divergence
	// Truncated is set when MaxDivergences was hit.
	Truncated bool
}

// Healthy reports whether the subject matched the reference.
func (r *Report) Healthy() bool { return len(r.Divergences) == 0 }

// Render formats the report for an engineer.
func (r *Report) Render() string {
	var b strings.Builder
	if r.Healthy() {
		fmt.Fprintf(&b, "diag: %d events compared, no divergence — device healthy\n", r.EventsCompared)
		return b.String()
	}
	fmt.Fprintf(&b, "diag: %d events compared, %d divergences", r.EventsCompared, len(r.Divergences))
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	b.WriteString("\n")
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Compare diffs a subject device's interaction log against a reference
// recording of the same workload on the same SKU.
func Compare(reference, subject *trace.Recording, opts Options) (*Report, error) {
	if reference.ProductID != subject.ProductID {
		return nil, fmt.Errorf("diag: comparing product %#x against %#x is meaningless",
			subject.ProductID, reference.ProductID)
	}
	if opts.MaxDivergences == 0 {
		opts.MaxDivergences = 32
	}
	rep := &Report{}
	add := func(d Divergence) bool {
		if len(rep.Divergences) >= opts.MaxDivergences {
			rep.Truncated = true
			return false
		}
		rep.Divergences = append(rep.Divergences, d)
		return true
	}
	n := len(reference.Events)
	if len(subject.Events) < n {
		n = len(subject.Events)
	}
	for i := 0; i < n; i++ {
		ref, obs := &reference.Events[i], &subject.Events[i]
		rep.EventsCompared++
		if ref.Kind != obs.Kind || ref.Reg != obs.Reg {
			if !add(Divergence{Kind: DivStructure, EventIndex: i, Reg: ref.Reg, Fn: ref.Fn,
				Detail: fmt.Sprintf("(got %v %s)", obs.Kind, mali.RegName(obs.Reg))}) {
				return rep, nil
			}
			continue
		}
		switch ref.Kind {
		case trace.KRead:
			// LATEST_FLUSH_ID is nondeterministic: its values never diverge.
			if ref.Value != obs.Value && ref.Reg != mali.LATEST_FLUSH_ID {
				if !add(Divergence{Kind: DivValue, EventIndex: i, Reg: ref.Reg, Fn: ref.Fn,
					Reference: ref.Value, Observed: obs.Value}) {
					return rep, nil
				}
			}
		case trace.KPoll:
			refDone := ref.Iters > 0 && ref.Iters <= ref.MaxIters
			obsDone := obs.Iters > 0 && obs.Iters <= obs.MaxIters
			if refDone != obsDone {
				if !add(Divergence{Kind: DivValue, EventIndex: i, Reg: ref.Reg, Fn: ref.Fn,
					Reference: ref.Iters, Observed: obs.Iters,
					Detail: "(polling predicate outcome differs)"}) {
					return rep, nil
				}
			} else if obs.Iters > ref.Iters*timingFactor {
				if !add(Divergence{Kind: DivTiming, EventIndex: i, Reg: ref.Reg, Fn: ref.Fn,
					Reference: ref.Iters, Observed: obs.Iters,
					Detail: "(hardware much slower than reference)"}) {
					return rep, nil
				}
			}
		case trace.KIRQ:
			if ref.IRQJob != obs.IRQJob || ref.IRQGPU != obs.IRQGPU || ref.IRQMMU != obs.IRQMMU {
				if !add(Divergence{Kind: DivValue, EventIndex: i, Fn: ref.Fn,
					Reference: ref.IRQJob, Observed: obs.IRQJob,
					Detail: "(interrupt lines differ)"}) {
					return rep, nil
				}
			}
		}
	}
	if len(reference.Events) != len(subject.Events) {
		add(Divergence{Kind: DivLength, EventIndex: n,
			Reference: uint32(len(reference.Events)), Observed: uint32(len(subject.Events)),
			Detail: "(one execution ended early)"})
	}
	return rep, nil
}
