package shim

import (
	"fmt"
	"strings"
	"sync"
)

// Outcome is what the GPU answered for one commit: read values in order,
// plus the predicate result and final value of each offloaded polling loop.
// Iteration counts are deliberately excluded — the paper speculates on the
// polling predicate, not the count, because counts track nondeterministic
// GPU timing (§4.3).
type Outcome struct {
	Reads     []uint32
	PollDone  []bool
	PollFinal []uint32
	// PollIters records loop iteration counts for statistics; it is NOT
	// part of outcome equality (counts track GPU timing and may vary
	// without invalidating a prediction).
	PollIters []int
}

// Equal reports whether two outcomes match, the speculation-validation test.
func (o Outcome) Equal(p Outcome) bool {
	if len(o.Reads) != len(p.Reads) || len(o.PollDone) != len(p.PollDone) ||
		len(o.PollFinal) != len(p.PollFinal) {
		return false
	}
	for i := range o.Reads {
		if o.Reads[i] != p.Reads[i] {
			return false
		}
	}
	for i := range o.PollDone {
		if o.PollDone[i] != p.PollDone[i] || o.PollFinal[i] != p.PollFinal[i] {
			return false
		}
	}
	return true
}

// CommitSignature identifies "the same register access sequence at the same
// driver source location" (§4.2): the history key. Writes contribute their
// concrete values when known; symbolic writes contribute their expression
// structure.
func CommitSignature(ops []RegOp) string {
	var b strings.Builder
	if len(ops) > 0 {
		b.WriteString(ops[0].Fn)
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpRead:
			fmt.Fprintf(&b, "|r%x", uint32(op.Reg))
		case OpWrite:
			if c, ok := op.WriteVal.Concrete(); ok {
				fmt.Fprintf(&b, "|w%x=%x", uint32(op.Reg), c)
			} else {
				// Symbolic writes render canonically (symbols by
				// origin, not unique ID) so recurring segments with
				// embedded symbols still match across runs.
				fmt.Fprintf(&b, "|w%x=%s", uint32(op.Reg), op.WriteVal.CanonicalString())
			}
		case OpPoll:
			fmt.Fprintf(&b, "|p%x:%x:%x:%d", uint32(op.Reg), op.DoneMask, op.DoneVal, op.MaxIters)
		}
	}
	return b.String()
}

// History is the commit history driving speculation. The paper retains it
// across workloads on the same GPU stack instance ("recurring segments ...
// across workloads", §4.2; the evaluation reuses history across the six
// benchmarks, §7.3).
//
// History is safe for concurrent use: the recording service shares one
// history among every session recording the same workload on the same SKU,
// so multiple DriverShims read and append to it in parallel. Outcomes are
// immutable once recorded — Predict hands out stored slices without
// copying, which is safe because nothing ever mutates them in place.
type History struct {
	// K is the confidence threshold: predictions require the K most
	// recent outcomes for a signature to be identical. The paper uses 3.
	K int

	mu sync.Mutex
	m  map[string][]Outcome
}

// PaperK is the paper's confidence threshold: a commit is predicted after 3
// identical outcomes (§4.2).
const PaperK = 3

// NewHistory creates a history with confidence threshold k.
func NewHistory(k int) *History {
	if k < 1 {
		panic(fmt.Sprintf("shim: history threshold %d < 1", k))
	}
	return &History{K: k, m: make(map[string][]Outcome)}
}

// Predict returns the predicted outcome for a commit signature if the
// speculation criteria hold: at least K recorded outcomes, the most recent K
// of which are identical.
func (h *History) Predict(sig string) (Outcome, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := h.m[sig]
	if len(hist) < h.K {
		return Outcome{}, false
	}
	last := hist[len(hist)-1]
	for i := len(hist) - h.K; i < len(hist); i++ {
		if !hist[i].Equal(last) {
			return Outcome{}, false
		}
	}
	return last, true
}

// Record appends an observed outcome. Only a bounded window is retained.
func (h *History) Record(sig string, o Outcome) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := append(h.m[sig], o)
	if len(hist) > 2*h.K+4 {
		hist = hist[len(hist)-(2*h.K+4):]
	}
	h.m[sig] = hist
}

// Invalidate drops all outcomes for a signature. Misprediction recovery
// calls this: the history at the diverged signature is no longer trusted
// (§4.2), so confidence must be rebuilt from scratch.
func (h *History) Invalidate(sig string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.m, sig)
}

// Signatures returns the number of distinct commit signatures seen.
func (h *History) Signatures() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.m)
}

// ExportReady returns the validated slice of the history: every signature
// whose window currently satisfies the Predict criteria (at least K recorded
// outcomes, the most recent K identical), mapped to that outcome. This is
// the fleet-exchange payload — only entries a shim would actually speculate
// on travel; unconfirmed or churning signatures stay local.
func (h *History) ExportReady() map[string]Outcome {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]Outcome)
	for sig, hist := range h.m {
		if len(hist) < h.K {
			continue
		}
		last := hist[len(hist)-1]
		ok := true
		for i := len(hist) - h.K; i < len(hist); i++ {
			if !hist[i].Equal(last) {
				ok = false
				break
			}
		}
		if ok {
			out[sig] = last
		}
	}
	return out
}

// WarmStart seeds the history from a validated export: each absent signature
// receives K copies of the outcome, so the very next Predict for it already
// hits. Signatures with local outcomes are left alone — locally observed
// truth outranks imported hearsay — and a later misprediction Invalidate
// clears an imported entry exactly like a native one. Returns the number of
// signatures seeded. Insertion order is irrelevant (windows are per
// signature), so iterating the map is deterministic in effect.
func (h *History) WarmStart(ready map[string]Outcome) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	seeded := 0
	for sig, o := range ready {
		if len(h.m[sig]) > 0 {
			continue
		}
		window := make([]Outcome, h.K)
		for i := range window {
			window[i] = o
		}
		h.m[sig] = window
		seeded++
	}
	return seeded
}
