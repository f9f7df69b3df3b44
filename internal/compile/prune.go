package compile

import "optinline/internal/callgraph"

// This file exposes the contribution-handle bookkeeping the branch-and-bound
// search (internal/search) prices its admissible bounds with. The handles
// are ordinary Sized values, but they are built and advanced entirely
// outside the whole-configuration cache and the evaluation counters:
// pruning is bookkeeping about configurations the search may *never*
// evaluate, so charging them would make the Evaluations counter depend on
// how much pruning happened rather than on how many configurations were
// compiled.
//
// Availability is deliberately wider than the delta engine's: besides its
// own SetPrune switch, pruning rides on the per-function memo only
// (memoize && !check), independent of the SetDelta toggle. A -no-delta run
// therefore makes byte-identical pruning decisions — and byte-identical
// evaluation counters — as a delta run, which is what the search's
// counter-parity tests pin down.

// SetPrune switches the branch-and-bound layer of the optimal search on or
// off (on by default). Off, the search runs the exhaustive recursion — the
// differential oracle behind the CLIs' -no-prune flags. Not safe to call
// concurrently with a search.
func (c *Compiler) SetPrune(on bool) { c.prune = on }

// PruneActive reports whether the search prunes and contribution handles
// for its bookkeeping are available: pruning must be on, the per-function
// memo on and checked mode off (checked mode forces whole-module pipelines,
// and pruning would skip exactly the work being checked).
func (c *Compiler) PruneActive() bool { return c.prune && c.memoize && !c.check }

// ContribBase builds a contribution handle for cfg without consulting or
// charging the whole-configuration cache. Returns nil when PruneActive is
// false; the returned handle has no contributions (HasContrib false) when
// cfg fails to compile.
func (c *Compiler) ContribBase(cfg *callgraph.Config) *Sized {
	if !c.PruneActive() {
		return nil
	}
	return c.contribHandle(cfg)
}

// RebaseContrib prices base⊕toggles like Rebase but entirely outside the
// whole-configuration cache and the evaluation/delta counters: only the
// dirty functions' contributions are recomputed (their closure compiles
// still land in — and are served from — the per-function memo, so the work
// is shared with any later real evaluation of the same region). Returns nil
// when the base carries no contributions or PruneActive is false; returns a
// contribution-free handle when the toggled configuration fails to compile.
func (c *Compiler) RebaseContrib(base *Sized, toggles []int) *Sized {
	if base == nil || base.full || !c.PruneActive() {
		return nil
	}
	cfg := c.toggled(base, toggles)
	contrib := make([]int, len(base.contrib))
	copy(contrib, base.contrib)
	dirty := c.memo.dirty(toggles)
	total := c.applyDirty(base, cfg, dirty, contrib)
	if total == InfSize {
		return &Sized{cfg: cfg, total: InfSize, full: true}
	}
	return &Sized{cfg: cfg, total: total, contrib: contrib}
}

// HasContrib reports whether the handle carries per-function contributions
// (false for handles built with the delta engine off and for configurations
// that failed to compile — InfSize totals never carry contributions).
func (s *Sized) HasContrib() bool { return s != nil && !s.full }

// ContribSum returns the sum of the handle's per-function contributions
// over the given memo-order function indices (DFE-dead functions contribute
// zero). The search uses it as the bound mass: within a subtree whose
// remaining free labels span exactly these functions, the total size can
// drop below the handle's by at most this sum, because every per-function
// contribution is non-negative.
func (s *Sized) ContribSum(idxs []int) int {
	if !s.HasContrib() {
		return 0
	}
	total := 0
	for _, i := range idxs {
		total += s.contrib[i]
	}
	return total
}
