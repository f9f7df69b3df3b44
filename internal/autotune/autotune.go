// Package autotune implements the paper's local inlining autotuner for size
// (Section 5, Algorithm 3) and its variants: clean-slate, heuristic-
// initialized, round-based, and best-of combination.
//
// One round evaluates, for every candidate edge independently and in
// parallel, the configuration that differs from the round's starting point
// only in that edge's label, and keeps the toggles that helped. The round
// costs n+2 compilations for n candidate edges. Rounds extend the scope:
// decisions that only pay off together (e.g. inlining every caller of a
// callee so the callee itself dies) can be discovered incrementally.
//
// The algorithm is written once: one round (tuner.round) over a pricer —
// bytes, bytes blended with modelled cycles, or an arbitrary objective —
// and one outer loop (Drive). Every entry point of the package, the stepped
// Session, and the linked lockstep tuner in internal/link are thin
// wrappers over these two.
package autotune

import (
	"cmp"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/ir"
)

// Options configures a tuning session.
type Options struct {
	// Rounds is the number of autotuning rounds; 0 means 1. The session
	// stops early at a fixpoint (a round that keeps no toggles).
	Rounds int
	// Workers bounds the concurrent per-edge evaluations; <= 0 uses
	// GOMAXPROCS.
	Workers int
}

// RoundTrace records one round's outcome (paper Table 4).
type RoundTrace struct {
	Round      int
	Size       int   // size of the configuration produced by this round
	Cycles     int64 // modelled cycles of that configuration; 0 for size-only sessions
	Inlined    int   // inline-labeled candidate edges after the round
	NotInlined int
	Toggles    int // edges whose label this round changed
}

// Result is the outcome of a tuning session.
type Result struct {
	// Config is the best configuration seen across all rounds (successive
	// rounds do not always improve; the paper recommends keeping the best).
	Config *callgraph.Config
	Size   int
	// Cycles is Config's modelled cycle count when the session tuned with a
	// cycle objective (weighted or cycles-only); 0 for size-only sessions.
	Cycles int64
	// InitSize is the size of the initial configuration (for objective
	// sessions: its cost); InitCycles its cycles, when priced.
	InitSize   int
	InitCycles int64
	// Final is the configuration produced by the last executed round; it
	// may be worse than Config.
	Final       *callgraph.Config
	FinalSize   int
	FinalCycles int64
	Rounds      []RoundTrace
	// Evaluations is the compiler's real-compilation counter at the end.
	Evaluations int64
}

// Point is one state of a tuning session: a configuration with its prices.
// Cost is what the session minimizes; Size and Cycles are what its traces
// and results report.
type Point[C cmp.Ordered] struct {
	Config *callgraph.Config
	Cost   C
	Size   int
	Cycles int64
}

// Drive is Algorithm 3's outer loop. start is the priced initial
// configuration; step runs round r and returns the configuration the round
// produced and how many toggles it kept. Drive runs rounds rounds (<= 0
// means 1), stops early at a fixpoint (a round that keeps no toggles), and
// records one RoundTrace per round over sites candidate edges. The result
// keeps the cheapest configuration seen — the earliest among equals — and
// the last one; Evaluations is left to the caller.
func Drive[C cmp.Ordered](rounds, sites int, start Point[C], step func(r int) (Point[C], int)) Result {
	res := Result{
		Config:     start.Config.Clone(),
		Size:       start.Size,
		Cycles:     start.Cycles,
		InitSize:   start.Size,
		InitCycles: start.Cycles,
	}
	best := start.Cost
	for round := 1; round <= max(rounds, 1); round++ {
		next, toggles := step(round)
		res.Rounds = append(res.Rounds, trace(round, sites, next, toggles))
		if next.Cost < best {
			res.Config, res.Size, res.Cycles, best = next.Config.Clone(), next.Size, next.Cycles, next.Cost
		}
		res.Final, res.FinalSize, res.FinalCycles = next.Config, next.Size, next.Cycles
		if toggles == 0 {
			break // fixpoint
		}
	}
	return res
}

func trace[C cmp.Ordered](round, sites int, p Point[C], toggles int) RoundTrace {
	n := p.Config.InlineCount()
	return RoundTrace{Round: round, Size: p.Size, Cycles: p.Cycles, Inlined: n, NotInlined: sites - n, Toggles: toggles}
}

// keeps is Algorithm 3's acceptance rule for a probe costing cost against
// the round's base: a toggle to inline is kept on a tie, anything else (a
// toggle away from inline, a group) must strictly improve.
func keeps[C cmp.Ordered](cost, base C, toInline bool) bool {
	return cost < base || (toInline && cost == base)
}

// A pricer prices a session's configurations: the round's base, toggle sets
// against it, and the rebase onto the round's result.
type pricer[C cmp.Ordered] interface {
	base() Point[C]
	// probe prices base⊕set for every set, in order.
	probe(sets [][]int, workers int) []C
	// rebase advances the base to base⊕toggles and returns it.
	rebase(toggles []int) Point[C]
	// evaluations is the session's real-evaluation counter.
	evaluations() int64
}

// tuner is one tuning session: a pricer plus the probe and apply policy of
// the extensions (group toggles, incremental rounds).
type tuner[C cmp.Ordered] struct {
	p      pricer[C]
	g      *callgraph.Graph
	mod    *ir.Module // resolves callee linkage for group toggles
	opts   ExtOptions
	active []int // sites probed by the next round
}

func newTuner[C cmp.Ordered](p pricer[C], g *callgraph.Graph, mod *ir.Module, opts ExtOptions) *tuner[C] {
	return &tuner[C]{p: p, g: g, mod: mod, opts: opts, active: g.Sites()}
}

// round is Algorithm 3's round generalized to an arbitrary starting point:
// every active edge is toggled against the same base (plus, with
// GroupCallees, every group configuration); beneficial toggles are applied
// and the pricer rebased onto the result. It returns the new base and the
// number of toggles kept.
func (t *tuner[C]) round() (Point[C], int) {
	base := t.p.base()
	sets := make([][]int, len(t.active), len(t.active)+8)
	for i, s := range t.active {
		sets[i] = []int{s}
	}
	var groups []group
	if t.opts.GroupCallees {
		groups = groupCandidates(t.g, t.mod, base.Config, t.active)
		for _, grp := range groups {
			sets = append(sets, grp.missing)
		}
	}
	costs := t.p.probe(sets, t.opts.Workers)

	next := base.Config.Clone()
	var toggled []int
	for i, s := range t.active {
		toInline := !base.Config.Inline(s)
		if keeps(costs[i], base.Cost, toInline) {
			next.Set(s, toInline)
			toggled = append(toggled, s)
		}
	}
	// Winning groups are additions, so later groups see earlier ones' edges
	// already set.
	for gi, grp := range groups {
		if keeps(costs[len(t.active)+gi], base.Cost, false) {
			for _, s := range grp.sites {
				if !next.Inline(s) {
					next.Set(s, true)
					toggled = append(toggled, s)
				}
			}
		}
	}
	// toggled can revisit a site (a single-edge toggle later overridden by a
	// winning group), so rebase on the configuration diff, not the log.
	pt := t.p.rebase(base.Config.DiffSites(next))
	if t.opts.Incremental && len(toggled) > 0 {
		t.active = neighbourhood(t.g, toggled)
	}
	return pt, len(toggled)
}

// run drives the session through its rounds.
func (t *tuner[C]) run() Result {
	res := Drive(t.opts.Rounds, len(t.g.Edges), t.p.base(), func(int) (Point[C], int) { return t.round() })
	res.Evaluations = t.p.evaluations()
	return res
}

// startConfig is the session's initial configuration: a copy of init, or
// the clean slate when init is nil.
func startConfig(init *callgraph.Config) *callgraph.Config {
	if init == nil {
		return callgraph.NewConfig()
	}
	return init.Clone()
}

// sizePricer prices in bytes on the compiler's delta-evaluation engine: the
// base is a Sized handle, each probe a SizeDelta against it (recompiling
// only the toggled edges' dirty closure), and the kept toggles Rebase it.
// With the engine disabled (-no-delta, checked mode) every call falls back
// to whole-configuration Size — results and evaluation counters are
// byte-identical either way.
type sizePricer struct {
	c *compile.Compiler
	h *compile.Sized
}

func newSizePricer(c *compile.Compiler, init *callgraph.Config) *sizePricer {
	return &sizePricer{c: c, h: c.Sized(startConfig(init))}
}

func (p *sizePricer) base() Point[int] {
	return Point[int]{Config: p.h.Config(), Cost: p.h.Size(), Size: p.h.Size()}
}

func (p *sizePricer) probe(sets [][]int, workers int) []int {
	return p.c.SizeDeltaParallel(p.h, sets, workers)
}

func (p *sizePricer) rebase(toggles []int) Point[int] {
	p.h = p.c.Rebase(p.h, toggles)
	return p.base()
}

func (p *sizePricer) evaluations() int64 { return p.c.Evaluations() }

// Tune runs a size tuning session starting from init (nil means clean
// slate). It is TuneExtended with no extension enabled.
func Tune(c *compile.Compiler, init *callgraph.Config, opts Options) Result {
	return TuneExtended(c, init, ExtOptions{Options: opts})
}

// CleanSlate tunes from the all-no-inline configuration.
func CleanSlate(c *compile.Compiler, opts Options) Result {
	return Tune(c, nil, opts)
}

// Combined runs both a clean-slate and an init-initialized session and
// returns the better result (paper Figure 15); the second return values
// expose the two sessions for analysis.
func Combined(c *compile.Compiler, init *callgraph.Config, opts Options) (best, clean, inited Result) {
	clean = Tune(c, nil, opts)
	inited = Tune(c, init, opts)
	if clean.Size <= inited.Size {
		best = clean
	} else {
		best = inited
	}
	return best, clean, inited
}
