package link

import (
	"fmt"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/par"
	"optinline/internal/search"
	"optinline/internal/stats"
)

// ShardOptions configures how a linked module's per-component work is run.
type ShardOptions struct {
	// Target is the codegen target sizes are measured against.
	Target codegen.Target
	// Compile configures every compiler built for the run. Sharing one
	// FnCache here is what lets the per-component compilers (and a
	// -no-shard oracle run) reuse each other's per-function compilations:
	// its content keys are module-independent, so a function compiled
	// inside a component sub-module hits when the same closure shows up in
	// the merged module.
	Compile compile.Options
	// Configure, when non-nil, runs on every compiler after construction —
	// the hook the CLIs use to apply -no-delta/-no-prune/-no-fncache
	// uniformly across shards.
	Configure func(*compile.Compiler)
	// Workers follows search.Options.Workers: 0 selects GOMAXPROCS,
	// negative forces sequential. In sharded mode the pool is shared by
	// component-level parallelism; sequential mode additionally keeps at
	// most one component's compiler alive at a time, which is what makes
	// peak memory track the largest component instead of the module.
	Workers int
	// NoShard switches to the single-compiler oracle: one merged module,
	// per-component OptimalCompletion over the merged graph's component
	// subgraphs. Results are byte-identical to the sharded path — that
	// equality is the -no-shard differential oracle the CLIs expose.
	NoShard bool
}

// workers is the per-component pool size for par.Each, where 0 already
// selects GOMAXPROCS.
func (o ShardOptions) workers() int {
	if o.Workers < 0 {
		return 1
	}
	return o.Workers
}

// compiler builds a compiler for one of the run's modules.
func (o ShardOptions) compiler(mod *ir.Module) *compile.Compiler {
	c := compile.NewWithOptions(mod, o.Target, o.Compile)
	if o.Configure != nil {
		o.Configure(c)
	}
	return c
}

// ComponentStat describes one call-graph component of the link plan and,
// after a run, its outcome. Every field is mode-independent: the sharded
// and -no-shard paths fill identical values.
type ComponentStat struct {
	Index int
	Funcs int
	Edges int
	// Space is the recursive search-space size (SubspaceSize) of the
	// component; Capped reports it exceeded the requested MaxSpace.
	Space  uint64
	Capped bool
	// Inlined is the number of inline-labeled sites in the component's
	// part of the result configuration.
	Inlined int
	// SizeDelta is the component's size effect vs the clean slate
	// (optimal search only; <= 0 by optimality of the search).
	SizeDelta int
}

// SearchOptions configures OptimalSearch.
type SearchOptions struct {
	ShardOptions
	// MaxSpace aborts (ok=false) if any single component's recursive space
	// exceeds it; 0 means no bound. The bound is per component — that is
	// the unit of work sharding distributes — and is computed from the
	// plan, so both modes abort identically without compiling anything.
	MaxSpace uint64
}

// SearchResult is the outcome of a cross-module optimal search.
type SearchResult struct {
	Components   []ComponentStat
	NoInlineSize int               // merged-module size under the clean slate
	Size         int               // merged-module size under Config
	Config       *callgraph.Config // optimal labels over the planned site IDs
	SpaceTotal   uint64            // saturating sum of component spaces

	// Diagnostics (mode- and schedule-dependent; the CLIs print them on
	// stderr, never on the byte-diffed stdout).
	Evaluations int64
	Prune       search.PruneStats
	ConfigCache stats.CacheStats
	FuncCache   stats.CacheStats
}

// OptimalSearch finds the optimal inlining configuration of the linked
// module by solving each call-graph component independently — the paper's
// independence theorem applied at link scale. In sharded mode (default)
// every component is materialized as its own sub-module and searched on its
// own compiler (own delta-engine state, own memo), components running on
// the worker pool; with NoShard one merged compiler solves the same
// components via OptimalCompletion. Both return identical configurations,
// sizes, and per-component stats.
//
// ok is false when a component's space exceeds MaxSpace (Components then
// carries the per-component spaces for reporting).
func (l *Linker) OptimalSearch(opts SearchOptions) (SearchResult, bool, error) {
	res := SearchResult{Components: make([]ComponentStat, len(l.plan.Components))}
	if capped := planSpaces(l.plan, opts.MaxSpace, &res); capped {
		return res, false, nil
	}
	var err error
	if opts.NoShard {
		err = l.searchMerged(opts, &res)
	} else {
		err = l.searchSharded(opts, &res)
	}
	if err != nil {
		return res, false, err
	}
	return res, true, nil
}

// planSpaces fills the plan-derived part of a SearchResult — per-component
// funcs/edges/space and the saturating space total — and reports whether any
// component exceeds maxSpace. Both search modes and the incremental Session
// share this prologue, so all paths abort identically without compiling.
func planSpaces(p *Plan, maxSpace uint64, res *SearchResult) bool {
	capped := false
	for ci := range p.Components {
		mg := p.ComponentMultigraph(ci)
		space, over := search.SubspaceSize(mg, maxSpace)
		over = over || (maxSpace > 0 && space > maxSpace)
		res.Components[ci] = ComponentStat{
			Index:  ci,
			Funcs:  len(p.Components[ci]),
			Edges:  len(mg.Edges),
			Space:  space,
			Capped: over,
		}
		capped = capped || over
		res.SpaceTotal = satAdd(res.SpaceTotal, space)
	}
	return capped
}

// compOut is one component's solved search outcome plus the solving
// compiler's diagnostics.
type compOut struct {
	cfg       *callgraph.Config
	size      int
	emptySize int
	evals     int64
	prune     search.PruneStats
	cc, fc    stats.CacheStats
}

// solveComponent materializes one component sub-module and searches it; the
// unit of work both the sharded search and a Session's dirty-component path
// run.
func (l *Linker) solveComponent(ci int, opts SearchOptions) (compOut, error) {
	mod, err := l.Component(ci)
	if err != nil {
		return compOut{}, err
	}
	c := opts.compiler(mod)
	emptySize := c.Size(callgraph.NewConfig())
	sres, ok := search.Optimal(c, search.Options{Workers: opts.Workers, MaxSpace: opts.MaxSpace})
	if !ok {
		// Unreachable: the per-component space was bounded from the
		// plan before any compiler was built.
		return compOut{}, fmt.Errorf("link: component %d space exceeded cap after plan check", ci)
	}
	return compOut{
		cfg:       sres.Config,
		size:      sres.Size,
		emptySize: emptySize,
		evals:     c.Evaluations(),
		prune:     sres.Prune,
		cc:        c.ConfigCacheStats(),
		fc:        c.FuncCacheStats(),
	}, nil
}

// searchSharded materializes and searches one sub-module per component.
func (l *Linker) searchSharded(opts SearchOptions, res *SearchResult) error {
	p := l.plan
	outs := make([]compOut, len(p.Components))
	run := func(ci int) error {
		o, err := l.solveComponent(ci, opts)
		if err != nil {
			return err
		}
		outs[ci] = o
		return nil
	}
	if err := par.Each(len(p.Components), opts.workers(), run); err != nil {
		return err
	}

	residSize, residEvals, err := l.residualSize(opts.ShardOptions)
	if err != nil {
		return err
	}
	cfg := callgraph.NewConfig()
	res.NoInlineSize = residSize
	res.Size = residSize
	res.Evaluations = residEvals
	for ci := range outs {
		o := &outs[ci]
		cfg.Merge(o.cfg)
		res.NoInlineSize += o.emptySize
		res.Size += o.size
		res.Evaluations += o.evals
		res.Prune = res.Prune.Add(o.prune)
		res.ConfigCache = res.ConfigCache.Add(o.cc)
		res.FuncCache = res.FuncCache.Add(o.fc)
		res.Components[ci].Inlined = o.cfg.InlineCount()
		res.Components[ci].SizeDelta = o.size - o.emptySize
	}
	res.Config = cfg
	return nil
}

// searchMerged is the -no-shard oracle: one compiler over the fully linked
// module, each component solved in place by OptimalCompletion over the
// merged graph's own component subgraphs. Those subgraphs must be taken
// from the merged compiler's graph — not the plan's compacted
// multigraphs — because the pruning engine resolves edge endpoints
// against whole-module function indices; a compacted graph would point
// its bounds at the wrong functions. The subgraphs are node-order-
// isomorphic to the component sub-modules' graphs and carry the same
// site IDs, so partition-edge decisions and leaf configurations match
// the sharded path exactly (TestPlanMatchesMaterializedGraph pins the
// per-index correspondence).
func (l *Linker) searchMerged(opts SearchOptions, res *SearchResult) error {
	mod, err := l.Link()
	if err != nil {
		return err
	}
	c := opts.compiler(mod)
	subs := search.ComponentSubgraphs(c.Graph())
	if len(subs) != len(l.plan.Components) {
		return fmt.Errorf("link: merged module has %d components, plan has %d", len(subs), len(l.plan.Components))
	}
	emptySize := c.Size(callgraph.NewConfig())
	cfg := callgraph.NewConfig()
	for ci := range l.plan.Components {
		mg := subs[ci]
		if len(mg.Edges) != res.Components[ci].Edges {
			return fmt.Errorf("link: component %d has %d edges merged, %d planned", ci, len(mg.Edges), res.Components[ci].Edges)
		}
		ccfg, csize := search.OptimalCompletion(c, mg, callgraph.NewConfig(), search.Options{Workers: opts.Workers})
		res.Components[ci].Inlined = ccfg.InlineCount()
		res.Components[ci].SizeDelta = csize - emptySize
		cfg.Merge(ccfg)
	}
	res.NoInlineSize = emptySize
	res.Size = c.Size(cfg)
	res.Config = cfg
	res.Evaluations = c.Evaluations()
	res.ConfigCache = c.ConfigCacheStats()
	res.FuncCache = c.FuncCacheStats()
	return nil
}

// residualSize compiles the residual sub-module (functions with no incident
// candidate edge) under the clean slate. Inlining cannot affect these
// functions, so this one constant completes every sharded total.
func (l *Linker) residualSize(opts ShardOptions) (size int, evals int64, err error) {
	mod, err := l.Residual()
	if err != nil {
		return 0, 0, err
	}
	if len(mod.Funcs) == 0 {
		return 0, 0, nil
	}
	c := opts.compiler(mod)
	return c.Size(callgraph.NewConfig()), c.Evaluations(), nil
}

func satAdd(a, b uint64) uint64 {
	if a > ^uint64(0)-b {
		return ^uint64(0)
	}
	return a + b
}
