package autotune

import (
	"optinline/internal/callgraph"
	"optinline/internal/compile"
)

// Session is a size tuning session stepped one round at a time by the
// caller. It runs exactly the rounds Tune runs — same probes, same tie
// rule, same delta-engine rebasing — but leaves the loop (how many rounds,
// when to stop, what "best" means) to the caller. The linked lockstep
// tuner (internal/link) is built on it: one Session per call-graph
// component, all stepped in global rounds by Drive, so the summed
// per-round traces reproduce a whole-module Tune exactly.
type Session struct {
	t     *tuner[int]
	round int
	done  bool // a round kept no toggles; further rounds are no-ops
}

// NewSession prices init (nil means clean slate) and returns a session
// positioned before round 1.
func NewSession(c *compile.Compiler, init *callgraph.Config, workers int) *Session {
	opts := ExtOptions{Options: Options{Workers: workers}}
	return &Session{t: newTuner[int](newSizePricer(c, init), c.Graph(), c.Module(), opts)}
}

// Step runs one tuning round and returns its trace. Once a round keeps no
// toggles the session is converged: the configuration is a fixpoint of the
// round operator (each probe depends only on the unchanged base), so Step
// becomes a free no-op that replays the converged state — callers in a
// lockstep loop may keep calling it or skip the session, identically.
func (s *Session) Step() RoundTrace {
	s.round++
	toggles := 0
	if !s.done {
		_, toggles = s.t.round()
		s.done = toggles == 0
	}
	return trace(s.round, len(s.t.g.Edges), s.t.p.base(), toggles)
}

// Converged reports whether a past round kept no toggles.
func (s *Session) Converged() bool { return s.done }

// Config returns the current round's configuration (shared; clone before
// mutating).
func (s *Session) Config() *callgraph.Config { return s.t.p.base().Config }

// Size returns the current round's size.
func (s *Session) Size() int { return s.t.p.base().Size }
