package link

import (
	"fmt"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/interp"
)

// TuneObjective selects what a linked tuning session minimizes.
type TuneObjective int

const (
	// ObjectiveSize minimizes compiled bytes (the default).
	ObjectiveSize TuneObjective = iota
	// ObjectiveWeighted minimizes bytes + Lambda·modelled cycles.
	ObjectiveWeighted
	// ObjectiveCycles minimizes modelled cycles alone.
	ObjectiveCycles
)

// tuneCyclesMerged runs a cycle-aware tuning session on the merged module.
//
// Cycle objectives never shard. The byte objective is component-separable —
// a toggle's size effect is confined to its component, which is what makes
// the lockstep sharded sessions an exact image of the whole-module tuner.
// The cycle objective is not: the i-cache replay threads one LRU state
// through the entire profiled frame sequence, so inlining a site in one
// component changes the miss penalties charged to frames of every other
// component that shares cache lines with it. Pretending otherwise would make
// -no-shard a real oracle instead of a free one, so the sharded path simply
// delegates here and stdout stays mode-independent by construction.
func (l *Linker) tuneCyclesMerged(opts TuneOptions, res *TuneResult) error {
	mod, err := l.Link()
	if err != nil {
		return err
	}
	c := opts.compiler(mod)
	entry := opts.Entry
	if entry == "" {
		entry = "entry"
	}
	// Profile the no-inline baseline: the pricer reprices every other
	// configuration from this one interpretation.
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		return err
	}
	_, prof, err := interp.Collect(built, entry, opts.Args, interp.Options{Fuel: opts.Fuel})
	if err != nil {
		return fmt.Errorf("profiling %s: %w", entry, err)
	}
	pricer, err := c.NewCyclePricer(prof, compile.CycleOptions{CacheBytes: opts.CacheBytes})
	if err != nil {
		return err
	}
	aOpts := autotune.Options{Rounds: opts.Rounds, Workers: opts.Workers}
	if opts.Objective == ObjectiveCycles {
		res.Result = autotune.TuneCycles(c, pricer, initConfig(opts.Init, c), aOpts)
	} else {
		res.Result = autotune.TuneWeighted(c, pricer, opts.Lambda, initConfig(opts.Init, c), aOpts)
	}
	res.Evaluations = c.Evaluations()
	res.ConfigCache = c.ConfigCacheStats()
	res.FuncCache = c.FuncCacheStats()
	res.Cycle = pricer.Stats()
	return nil
}
