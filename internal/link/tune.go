package link

import (
	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/par"
	"optinline/internal/stats"
)

// TuneInit selects the tuning starting point.
type TuneInit int

const (
	// InitClean starts from the all-no-inline configuration.
	InitClean TuneInit = iota
	// InitOs starts from the -Os heuristic configuration. The heuristic is
	// component-local (estimates and caller counts propagate only along
	// candidate edges), so computing it per component sub-module or on the
	// merged module yields the same labels — both modes start identically.
	InitOs
)

// TuneOptions configures Tune.
type TuneOptions struct {
	ShardOptions
	// Rounds bounds the number of global tuning rounds; 0 means 1.
	Rounds int
	// Init selects the starting configuration.
	Init TuneInit
	// Objective selects what the session minimizes. Non-size objectives
	// price cycles against a profile collected by interpreting the linked
	// module's Entry with Args, and always run on the merged module —
	// the i-cache couples components, so cycle prices are not
	// component-separable (see tuneCyclesMerged); NoShard is ignored.
	Objective TuneObjective
	// Lambda weighs cycles against bytes for ObjectiveWeighted.
	Lambda float64
	// Entry names the profiled root for cycle objectives; "" means "entry".
	Entry string
	// Args are the profiled root's arguments.
	Args []int64
	// Fuel bounds the profiling interpretation; 0 uses the interpreter
	// default.
	Fuel int64
	// CacheBytes sets the modelled i-cache capacity; 0 uses the
	// interpreter default.
	CacheBytes int
	// NoCycleDelta forces the cycle pricer's whole-module oracle
	// (differential; results are byte-identical).
	NoCycleDelta bool
}

// TuneResult is the outcome of a cross-module tuning session.
type TuneResult struct {
	Components []ComponentStat
	// Result aggregates the session exactly as a whole-module
	// autotune.Tune over the linked module reports it: merged per-round
	// traces, best/final configurations and sizes over planned site IDs.
	Result autotune.Result

	// Diagnostics (mode-dependent; stderr only).
	Evaluations int64
	ConfigCache stats.CacheStats
	FuncCache   stats.CacheStats
	// Cycle reports the cycle pricer's counters for cycle-aware sessions.
	Cycle compile.CyclePricerStats
}

// Tune runs the paper's local autotuner over the linked module, sharded by
// call-graph component: one tuning session per component, all stepped in
// lockstep global rounds (a round of the whole-module tuner IS an
// independent round per component — each probe toggles one site against the
// shared base, and a toggle's size effect is confined to its component).
// Converged components replay their fixpoint for free while the rest keep
// stepping. With NoShard the same session runs as one whole-module
// autotune.Tune on the merged compiler; traces, configurations, and sizes
// are identical either way.
func (l *Linker) Tune(opts TuneOptions) (TuneResult, error) {
	return l.tuneWith(func(res *TuneResult) error {
		switch {
		case opts.Objective != ObjectiveSize:
			return l.tuneCyclesMerged(opts, res)
		case opts.NoShard:
			return l.tuneMerged(opts, res)
		}
		return l.tuneLockstep(opts, nil, func() (int, int64, error) {
			return l.residualSize(opts.ShardOptions)
		}, res, &RelinkInfo{})
	})
}

// tuneWith fills the per-component statistics around a tuning run.
func (l *Linker) tuneWith(run func(res *TuneResult) error) (TuneResult, error) {
	p := l.plan
	res := TuneResult{Components: make([]ComponentStat, len(p.Components))}
	for ci := range p.Components {
		res.Components[ci] = ComponentStat{
			Index: ci,
			Funcs: len(p.Components[ci]),
			Edges: len(p.ComponentEdges(ci)),
		}
	}
	if err := run(&res); err != nil {
		return res, err
	}
	for ci := range res.Components {
		n := 0
		for _, e := range p.ComponentEdges(ci) {
			if res.Result.Config.Inline(e.Site) {
				n++
			}
		}
		res.Components[ci].Inlined = n
	}
	return res, nil
}

func initConfig(kind TuneInit, c *compile.Compiler) *callgraph.Config {
	if kind == InitOs {
		return heuristic.OsConfig(c.Module(), c.Graph())
	}
	return callgraph.NewConfig()
}

// tuneShard is one component of a lockstep tuning run: a live
// autotune.Session, or the replay of a trace cached by an earlier run.
type tuneShard struct {
	edges   []PlannedEdge
	key     ResultKey
	cached  *tuneOutcome
	claimed bool // this run owns key and must settle it
	record  tuneOutcome
	c       *compile.Compiler
	sess    *autotune.Session
	cfg     *callgraph.Config // current labels
	size    int               // current component size
}

// step advances the shard to global round r and returns its toggles.
func (sh *tuneShard) step(r int) int {
	if sh.cached != nil {
		e := sh.cached.round(r)
		sh.cfg, sh.size = bitsConfig(sh.edges, e.bits), e.size
		return e.toggles
	}
	tr := sh.sess.Step()
	sh.cfg, sh.size = sh.sess.Config(), tr.Size
	if sh.claimed {
		sh.record.rounds = append(sh.record.rounds, tuneRound{
			size: tr.Size, toggles: tr.Toggles, bits: configBits(sh.edges, sh.cfg),
		})
	}
	return tr.Toggles
}

// tuneLockstep runs one autotune.Session per component, all stepped in
// global rounds by autotune.Drive, and reports the summed traces as one
// whole-module session. With a results cache, components whose content key
// is cached replay their recorded trace and the live ones record theirs;
// residual prices the edge-free functions. The cold Linker passes no cache
// and its whole-residual compile, so it stays an independent oracle for
// a Session's replays and per-unit residual sums.
func (l *Linker) tuneLockstep(opts TuneOptions, results *ComponentCache, residual func() (int, int64, error), res *TuneResult, info *RelinkInfo) error {
	p := l.plan
	rounds := max(opts.Rounds, 1) // as autotune.Drive; keyed below
	shards := make([]tuneShard, len(p.Components))
	for ci := range shards {
		shards[ci].edges = p.ComponentEdges(ci)
	}
	if results != nil {
		// Claims must not block: fulfilment only happens after the global
		// loop, so waiting on another in-flight tune here (or on a
		// duplicate key within this very run) could deadlock. TryClaim
		// returns busy in those cases and the component simply solves
		// live, unrecorded.
		for ci := range shards {
			sh := &shards[ci]
			sh.key = tuneKey(componentKey(p, l.sums, ci, opts.Target), opts.Init, rounds)
			v, hit, claimed := results.g.TryClaim(sh.key)
			if hit {
				sh.cached = v.(*tuneOutcome)
			}
			sh.claimed = claimed
		}
		defer func() {
			for ci := range shards {
				if shards[ci].claimed {
					results.g.Withdraw(shards[ci].key)
				}
			}
		}()
	}

	build := func(ci int) error {
		sh := &shards[ci]
		if sh.cached != nil {
			sh.cfg, sh.size = bitsConfig(sh.edges, sh.cached.initBits), sh.cached.initSize
			return nil
		}
		mod, err := l.Component(ci)
		if err != nil {
			return err
		}
		sh.c = opts.compiler(mod)
		sh.sess = autotune.NewSession(sh.c, initConfig(opts.Init, sh.c), opts.Workers)
		sh.cfg, sh.size = sh.sess.Config(), sh.sess.Size()
		if sh.claimed {
			sh.record = tuneOutcome{initSize: sh.size, initBits: configBits(sh.edges, sh.cfg)}
		}
		return nil
	}
	if err := par.Each(len(shards), opts.workers(), build); err != nil {
		return err
	}
	residSize, residEvals, err := residual()
	if err != nil {
		return err
	}

	merged := func() autotune.Point[int] {
		pt := autotune.Point[int]{Config: callgraph.NewConfig(), Size: residSize}
		for ci := range shards {
			pt.Config.Merge(shards[ci].cfg)
			pt.Size += shards[ci].size
		}
		pt.Cost = pt.Size
		return pt
	}
	out := autotune.Drive(rounds, len(p.Edges), merged(), func(r int) (autotune.Point[int], int) {
		toggles := make([]int, len(shards))
		par.For(len(shards), opts.workers(), func(ci int) { toggles[ci] = shards[ci].step(r) })
		n := 0
		for _, t := range toggles {
			n += t
		}
		return merged(), n
	})

	res.Evaluations = residEvals
	for ci := range shards {
		sh := &shards[ci]
		if sh.claimed {
			rec := sh.record
			results.g.Fulfill(sh.key, &rec)
			sh.claimed = false
		}
		if sh.sess != nil {
			res.Evaluations += sh.c.Evaluations()
			res.ConfigCache = res.ConfigCache.Add(sh.c.ConfigCacheStats())
			res.FuncCache = res.FuncCache.Add(sh.c.FuncCacheStats())
			info.ComponentsSolved++
		} else {
			info.ComponentsReplayed++
		}
	}
	out.Evaluations = res.Evaluations
	res.Result = out
	return nil
}

// tuneMerged is the -no-shard oracle: a plain whole-module tuning session
// on the linked module.
func (l *Linker) tuneMerged(opts TuneOptions, res *TuneResult) error {
	mod, err := l.Link()
	if err != nil {
		return err
	}
	c := opts.compiler(mod)
	res.Result = autotune.Tune(c, initConfig(opts.Init, c), autotune.Options{
		Rounds:  opts.Rounds,
		Workers: opts.Workers,
	})
	res.Evaluations = c.Evaluations()
	res.ConfigCache = c.ConfigCacheStats()
	res.FuncCache = c.FuncCacheStats()
	return nil
}
