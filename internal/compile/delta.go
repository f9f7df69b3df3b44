package compile

import (
	"runtime"
	"sync"
	"sync/atomic"

	"optinline/internal/callgraph"
)

// This file implements incremental delta evaluation on top of the memo
// engine. The paper's exactness argument (DESIGN.md §1) says total size is
// a sum of independent per-component terms; the memo engine already caches
// the per-function terms, but Size still re-derives the whole sum — every
// call walks all functions, rebuilds their closure keys, and re-runs the
// label-based DFE maps — even when the configuration differs from an
// already-priced one in a single label.
//
// A Sized handle pins a priced base configuration together with its
// per-function contributions. SizeDelta prices a toggled variant by
// recomputing only the dirty functions:
//
//   - the toggled sites' owners' ancestors in the candidate call graph
//     (precomputed once per Compiler, memo.go) — the only functions whose
//     inline-closure memo key can contain a flipped site; a site enters a
//     closure only after its owner does, so its own label never gates the
//     owner's membership and the static ancestor set is a sound
//     over-approximation for every base configuration;
//   - the toggled sites' callees, whose DFE survival is a pure function of
//     exactly these incoming labels (memoState.alive).
//
// Everything else — survival and size alike — provably cannot change, so
// an n-edge autotuner round costs n dirty-closure recompiles instead of n
// whole-module memo walks. Results are byte-identical to the full path:
// delta totals come from the same funcSize cache the full path fills, the
// same single-flight whole-config cache dedupes and counts evaluations, so
// sizes, configurations, and evaluation counters never depend on which
// path priced a configuration.

// Sized is a priced configuration handle: the configuration, its total
// size, and (when the delta engine is active) the per-function size
// contributions the total decomposes into. Handles are immutable and safe
// for concurrent use; SizeDelta and Rebase derive toggled prices from them.
type Sized struct {
	cfg     *callgraph.Config
	total   int
	contrib []int // per memoState.funcs index; 0 for DFE-dead functions
	full    bool  // no contributions: delta requests fall back to Size
}

// Size returns the total size of the handle's configuration.
func (s *Sized) Size() int { return s.total }

// Config returns a copy of the handle's configuration.
func (s *Sized) Config() *callgraph.Config { return s.cfg.Clone() }

// Inline reports the handle configuration's label for a site.
func (s *Sized) Inline(site int) bool { return s.cfg.Inline(site) }

// toggled returns base's configuration with every listed site's label
// flipped relative to the base (duplicates are therefore harmless).
func (c *Compiler) toggled(base *Sized, toggles []int) *callgraph.Config {
	cfg := base.cfg.Clone()
	for _, s := range toggles {
		cfg.Set(s, !base.cfg.Inline(s))
	}
	return cfg
}

// Sized evaluates cfg — charging the whole-config cache and the evaluation
// counters exactly like Size — and returns the handle the delta calls
// start from. When the delta engine is inactive (SetDelta(false), memo
// off, or checked mode) the handle carries only the total and every
// derived request falls back to the full path.
func (c *Compiler) Sized(cfg *callgraph.Config) *Sized {
	if !c.DeltaEnabled() {
		return &Sized{cfg: cfg.Clone(), total: c.Size(cfg), full: true}
	}
	var h *Sized
	size, hit := c.sizeOf(cfg, func() int {
		h = c.newHandle(cfg)
		return h.total
	})
	if hit {
		return c.handleFor(cfg, size)
	}
	return h
}

// DeltaBase builds a handle for cfg without consulting or charging the
// whole-config cache, for bases that are not themselves evaluations of the
// client algorithm (the search prices its root this way: the clean slate
// is only evaluated when a leaf requests it, exactly as on the full path).
// Returns nil when the delta engine is inactive.
func (c *Compiler) DeltaBase(cfg *callgraph.Config) *Sized {
	if !c.DeltaEnabled() {
		return nil
	}
	return c.contribHandle(cfg)
}

// SizeDelta prices the configuration that differs from base by the given
// toggles. It is the incremental equivalent of Size(toggled config): same
// single-flight cache, same counters, byte-identical result — but a miss
// recomputes only the dirty functions instead of walking the module.
func (c *Compiler) SizeDelta(base *Sized, toggles []int) int {
	cfg := c.toggled(base, toggles)
	if base.full || !c.DeltaEnabled() {
		return c.Size(cfg)
	}
	size, _ := c.sizeOf(cfg, func() int { return c.measureDelta(base, cfg, toggles, nil) })
	return size
}

// SizeDeltaParallel prices many toggle sets against the same base
// concurrently, in order. workers <= 0 selects GOMAXPROCS.
func (c *Compiler) SizeDeltaParallel(base *Sized, toggles [][]int, workers int) []int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(toggles) {
		workers = len(toggles)
	}
	out := make([]int, len(toggles))
	if workers <= 1 {
		for i, t := range toggles {
			out[i] = c.SizeDelta(base, t)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(toggles) {
					return
				}
				out[i] = c.SizeDelta(base, toggles[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Rebase is SizeDelta returning a full handle: it prices base⊕toggles
// (one cache request, like SizeDelta) and carries the updated per-function
// contributions forward, so a round-based client advances its base without
// re-walking the module.
func (c *Compiler) Rebase(base *Sized, toggles []int) *Sized {
	cfg := c.toggled(base, toggles)
	if base.full || !c.DeltaEnabled() {
		return &Sized{cfg: cfg, total: c.Size(cfg), full: true}
	}
	contrib := make([]int, len(base.contrib))
	copy(contrib, base.contrib)
	size, hit := c.sizeOf(cfg, func() int { return c.measureDelta(base, cfg, toggles, contrib) })
	if size == InfSize {
		return &Sized{cfg: cfg, total: InfSize, full: true}
	}
	if hit {
		c.applyDelta(base, cfg, toggles, contrib)
	}
	return &Sized{cfg: cfg, total: size, contrib: contrib}
}

// measureDelta is the miss path of SizeDelta/Rebase: it mirrors measure()'s
// counter discipline (one evaluation; one error on a failed build) while
// doing only the dirty work.
func (c *Compiler) measureDelta(base *Sized, cfg *callgraph.Config, toggles []int, contrib []int) int {
	c.evals.Add(1)
	c.deltaEvals.Add(1)
	total := c.applyDelta(base, cfg, toggles, contrib)
	if total == InfSize {
		c.errors.Add(1)
	}
	return total
}

// applyDelta recomputes the dirty functions' contributions under cfg and
// returns the adjusted total (InfSize if any dirty closure fails to
// compile). When contrib is non-nil (a copy of base's contributions) the
// dirty entries are updated in place.
func (c *Compiler) applyDelta(base *Sized, cfg *callgraph.Config, toggles []int, contrib []int) int {
	dirty := c.memo.dirty(toggles)
	c.deltaDirty.Add(int64(len(dirty)))
	return c.applyDirty(base, cfg, dirty, contrib)
}

// applyDirty reprices the given dirty functions under cfg against base's
// contributions. Shared by the counted delta path above and the uncounted
// bound bookkeeping in prune.go.
func (c *Compiler) applyDirty(base *Sized, cfg *callgraph.Config, dirty []int32, contrib []int) int {
	ms := c.memo
	total := base.total
	for _, i := range dirty {
		fi := ms.funcs[i]
		size := 0
		if ms.alive(fi, cfg) {
			size = c.funcSize(fi, cfg)
			if size == InfSize {
				return InfSize
			}
		}
		if contrib != nil {
			contrib[i] = size
		}
		total += size - base.contrib[i]
	}
	return total
}

// newHandle is the miss path of Sized: measureMemo with per-function
// contribution recording.
func (c *Compiler) newHandle(cfg *callgraph.Config) *Sized {
	c.evals.Add(1)
	h := c.contribHandle(cfg)
	if h.total == InfSize {
		c.errors.Add(1)
	}
	return h
}

// handleFor rebuilds the contribution vector of an already-priced
// configuration; every per-function term is memo-resident, so this is a
// cache walk, not a compilation.
func (c *Compiler) handleFor(cfg *callgraph.Config, size int) *Sized {
	if size == InfSize {
		return &Sized{cfg: cfg.Clone(), total: InfSize, full: true}
	}
	return c.contribHandle(cfg)
}

// contribHandle prices cfg function by function, recording contributions.
// It touches only the per-function memo, never the whole-config cache.
func (c *Compiler) contribHandle(cfg *callgraph.Config) *Sized {
	ms := c.memo
	contrib := make([]int, len(ms.funcs))
	total := 0
	for i, fi := range ms.funcs {
		if !ms.alive(fi, cfg) {
			continue
		}
		s := c.funcSize(fi, cfg)
		if s == InfSize {
			return &Sized{cfg: cfg.Clone(), total: InfSize, full: true}
		}
		contrib[i] = s
		total += s
	}
	return &Sized{cfg: cfg.Clone(), total: total, contrib: contrib}
}
