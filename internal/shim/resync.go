package shim

import (
	"fmt"
	"time"

	"gpurelay/internal/trace"
)

// Checkpoint resume re-synchronizes a fresh cloud driver by re-running the
// driver stack from the start with the link detached: every commit executes
// against the client GPU model locally (both sides replay, §4.2) and the
// clock advances by the calibrated per-event replay cost instead of a round
// trip. Each re-derived event is verified against the checkpointed log
// prefix; once the prefix is exhausted the shim seamlessly switches back to
// real link exchanges and the recording continues where the lost session
// stopped.

// ResyncDiverged is panicked (and recovered by the record orchestrator) when
// a re-derived event does not match the checkpointed prefix — the checkpoint
// does not describe this session and resuming from it is unsafe.
type ResyncDiverged struct {
	Pos    int
	Reason string
}

func (r ResyncDiverged) Error() string {
	return fmt.Sprintf("shim: resync diverged at event %d: %s", r.Pos, r.Reason)
}

type resyncState struct {
	expect   []trace.Event
	pos      int
	perEvent time.Duration
}

// BeginResync arms resync mode: until the re-derived log reaches len(prefix)
// events, commits bypass the link and every appended event is verified
// against prefix. Must be called before any driver activity (empty log) —
// speculation stays off for the whole resync. An empty prefix is a no-op.
func (s *DriverShim) BeginResync(prefix []trace.Event, perEvent time.Duration) {
	if len(prefix) == 0 {
		return
	}
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if len(s.log) != 0 {
		panic("shim: BeginResync on a shim with driver activity")
	}
	s.rs = &resyncState{expect: prefix, perEvent: perEvent}
}

// Resyncing reports whether the shim is still replaying a checkpoint prefix.
func (s *DriverShim) Resyncing() bool {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	return s.rs != nil
}

// verifyResync checks newly appended log events against the checkpoint
// prefix and disarms resync when the prefix is exhausted. Callers hold gmu
// and must append to s.log only at event boundaries (a checkpoint never
// splits a commit, so the prefix end always lands between appends).
func (s *DriverShim) verifyResync() {
	rs := s.rs
	if rs == nil {
		return
	}
	for rs.pos < len(s.log) {
		if rs.pos >= len(rs.expect) {
			panic(ResyncDiverged{Pos: rs.pos,
				Reason: "re-derived log grew past the checkpoint prefix"})
		}
		if !s.log[rs.pos].Equal(&rs.expect[rs.pos]) {
			panic(ResyncDiverged{Pos: rs.pos,
				Reason: fmt.Sprintf("re-derived %s event differs from checkpointed %s event",
					s.log[rs.pos].Kind, rs.expect[rs.pos].Kind)})
		}
		rs.pos++
	}
	if rs.pos == len(rs.expect) {
		s.stats.ResyncEvents += rs.pos
		s.rs = nil
	}
}
