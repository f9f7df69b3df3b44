package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/source"
)

// checkFuel bounds each reference interpretation; units whose no-inline
// run needs more are not compared (and are counted in the notes).
const checkFuel = interp.DefaultFuel

// checker verifies results outside the timed section. Every check is
// independent of the engine that produced the result: sizes are recomputed
// by a fresh compiler with every cache and incremental path off, and the
// chosen configuration's module must behave like the no-inline module when
// interpreted.
type checker struct {
	failed   int
	checked  int
	unrun    int // results not interpreted: no entry function or out of fuel
	failures []string
	q        quality
}

func (ck *checker) fail(format string, args ...any) {
	ck.failed++
	if len(ck.failures) < 10 {
		ck.failures = append(ck.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds o's counts, failures and ratios to ck.
func (ck *checker) merge(o *checker) {
	ck.failed += o.failed
	ck.checked += o.checked
	ck.unrun += o.unrun
	ck.failures = append(ck.failures, o.failures...)
	ck.q.size = append(ck.q.size, o.q.size...)
	ck.q.cycles = append(ck.q.cycles, o.q.cycles...)
}

// runChecks runs the jobs on workers goroutines, each job with a checker
// of its own, and merges the checkers in job order, so the merged ratios
// do not depend on scheduling.
func runChecks(workers int, jobs []func(ck *checker)) checker {
	cks := make([]checker, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				jobs[i](&cks[i])
			}
		}()
	}
	wg.Wait()
	var all checker
	for i := range cks {
		all.merge(&cks[i])
	}
	return all
}

func (ck *checker) notes() []string {
	out := []string{fmt.Sprintf("checked %d results, %d failed, %d not interpreted (no entry or out of fuel)", ck.checked, ck.failed, ck.unrun)}
	return append(out, ck.failures...)
}

// freshCompiler returns a compiler with memoization, the delta engine and
// the function cache off: the full pipeline for every size.
func freshCompiler(m *ir.Module) *compile.Compiler {
	c := compile.New(m, codegen.TargetX86)
	c.SetMemoize(false)
	c.SetDelta(false)
	c.SetFnCache(false)
	return c
}

// result is one optimizer result to check: the configuration chosen for a
// unit, its reported size, and the -Os configuration it is compared with.
type result struct {
	key   string
	u     unit
	cfg   *callgraph.Config
	size  int
	osCfg *callgraph.Config
	// osSize is the reported -Os size; 0 when the op did not report one.
	osSize int
	// sample marks the results the quality ratios are taken over.
	sample bool
}

// check verifies r on a fresh parse of its unit: the fresh compiler must
// price cfg at r.size and the -Os configuration at r.osSize (if set), and cfg's
// module must compute what the no-inline module computes on entry(7). It
// returns the modelled cycles of cfg and (for sampled results) of the -Os
// configuration, 0 when the unit is not interpreted, and whether r passed.
func (ck *checker) check(r result) (cycles, osCycles int64, ok bool) {
	ck.checked++
	m, err := source.FromBytes(r.u.name, r.u.text)
	if err != nil {
		ck.fail("%s: %v", r.key, err)
		return 0, 0, false
	}
	c := freshCompiler(m)
	if got := c.Size(r.cfg); got != r.size {
		ck.fail("%s: reported size %d, fresh compile gives %d", r.key, r.size, got)
		return 0, 0, false
	}
	if got := c.Size(r.osCfg); r.osSize != 0 && got != r.osSize {
		ck.fail("%s: reported -Os size %d, fresh compile gives %d", r.key, r.osSize, got)
		return 0, 0, false
	}
	if c.Module().Func("entry") == nil {
		ck.unrun++
		return 0, 0, true
	}
	ref, err := interpret(c, callgraph.NewConfig())
	if errors.Is(err, interp.ErrFuel) {
		ck.unrun++
		return 0, 0, true
	}
	if err != nil {
		ck.fail("%s: no-inline module: %v", r.key, err)
		return 0, 0, false
	}
	got, err := interpret(c, r.cfg)
	if err != nil {
		ck.fail("%s: chosen configuration: %v", r.key, err)
		return 0, 0, false
	}
	if got.Observable() != ref.Observable() {
		ck.fail("%s: chosen configuration changes observable behaviour", r.key)
		return 0, 0, false
	}
	if r.sample {
		if os, err := interpret(c, r.osCfg); err == nil {
			osCycles = os.Cycles
		}
	}
	return got.Cycles, osCycles, true
}

// addSize records a size ratio to -Os.
func (q *quality) addSize(size, osSize int) {
	q.size = append(q.size, float64(size)/float64(osSize))
}

// addCycles records a cycle ratio to -Os when both runs were priced.
func (q *quality) addCycles(cycles, osCycles int64) {
	if cycles > 0 && osCycles > 0 {
		q.cycles = append(q.cycles, float64(cycles)/float64(osCycles))
	}
}

// linked checks a linked tune result: the merged module of the units,
// compiled fresh, must have the reported size under cfg.
func (ck *checker) linked(key string, names []string, mods []*ir.Module, cfg *callgraph.Config, size int) {
	ck.checked++
	tus := make([]link.TU, len(mods))
	for i, m := range mods {
		tus[i] = corpusTU(names[i], m)
	}
	merged, err := link.Link(tus, link.Options{})
	if err != nil {
		ck.fail("%s: link: %v", key, err)
		return
	}
	if got := freshCompiler(merged).Size(cfg); got != size {
		ck.fail("%s: reported size %d, fresh compile of the merged module gives %d", key, size, got)
	}
}

// interpret interprets entry(7) of cfg's module under the cycle model.
func interpret(c *compile.Compiler, cfg *callgraph.Config) (interp.Result, error) {
	m, err := c.Build(cfg)
	if err != nil {
		return interp.Result{}, err
	}
	return interp.Run(m, "entry", []int64{7}, interp.Options{
		Fuel:   checkFuel,
		SizeOf: codegen.SizeOf(m, codegen.TargetX86),
	})
}
