package autotune

import (
	"optinline/internal/callgraph"
	"optinline/internal/flight"
	"optinline/internal/par"
)

// Objective maps an inlining configuration to a cost to minimize. The
// size autotuner is the special case Objective = compiled .text bytes; the
// paper's Section 6 sketches tuning for runtime as the natural next target,
// which this generalization enables (e.g. interpreter cycles under the
// i-cache model, or any size/speed blend).
type Objective func(cfg *callgraph.Config) int64

// TuneObjective runs the local autotuner against an arbitrary objective.
// Results are memoized per canonical configuration, and each round's
// toggles evaluate in parallel, exactly like the size tuner. Evaluations
// counts objective calls.
func TuneObjective(g *callgraph.Graph, obj Objective, init *callgraph.Config, opts Options) Result {
	p := &objectivePricer{obj: obj}
	p.cur = p.point(startConfig(init))
	return newTuner[int64](p, g, nil, ExtOptions{Options: opts}).run()
}

// objectivePricer prices configurations with a memoized objective; a
// configuration's size is reported as its cost.
type objectivePricer struct {
	obj  Objective
	memo flight.Group[string, int64]
	cur  Point[int64]
}

func (p *objectivePricer) eval(cfg *callgraph.Config) int64 {
	v, _, _ := p.memo.Do(cfg.Key(), func() (int64, error) { return p.obj(cfg), nil })
	return v
}

func (p *objectivePricer) point(cfg *callgraph.Config) Point[int64] {
	cost := p.eval(cfg)
	return Point[int64]{Config: cfg, Cost: cost, Size: int(cost)}
}

// toggled returns the base configuration with every site of set flipped.
func (p *objectivePricer) toggled(set []int) *callgraph.Config {
	cfg := p.cur.Config.Clone()
	for _, s := range set {
		cfg.Set(s, !p.cur.Config.Inline(s))
	}
	return cfg
}

func (p *objectivePricer) base() Point[int64] { return p.cur }

func (p *objectivePricer) probe(sets [][]int, workers int) []int64 {
	costs := make([]int64, len(sets))
	par.For(len(sets), workers, func(i int) { costs[i] = p.eval(p.toggled(sets[i])) })
	return costs
}

func (p *objectivePricer) rebase(toggles []int) Point[int64] {
	p.cur = p.point(p.toggled(toggles))
	return p.cur
}

func (p *objectivePricer) evaluations() int64 { return p.memo.Stats().Misses }
