package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/workload"
)

// tune-large: the autotuner at scale, where no search space is counted.
// One pass is one cold link.Session.Tune over a linked-x10-shaped corpus,
// then, in a seeded order:
//   - size autotuning (Combined, tuneRounds rounds) of ten LLVM-shaped
//     files and one SQLite-shaped unit;
//   - one TuneWeighted per unit of weightedVariants variants of the
//     SPECspeed-shaped subset, priced by a CyclePricer over an
//     interp.Collect profile (the paper's Fig. 19 set);
//   - interleaved with those, tuneEdits MutateLinkedTU edits of the linked
//     corpus, each a Replace plus a re-tune.
//
// Weighted tunes of LLVM-shaped units are left out: one such unit can take
// minutes of cycle replay.
const (
	tuneRounds     = 4
	linkRounds     = 2
	weightedLambda = 0.1
	collectFuel    = 20_000_000
	// A pass has weightedVariants variants of the SPECspeed-shaped subset
	// (about 107 units each) and tuneEdits edits spread evenly among them.
	// Edits and weighted tunes form two latency clusters; with the cheap
	// weighted tunes the large majority, the median op falls inside their
	// cluster rather than in the gap between the two, and the p90 op among
	// the edits.
	weightedVariants = 3
	tuneEdits        = 120
	// A run measures ceil(--seconds / tunePassSeconds) whole passes; one
	// pass takes about 35 s of wall time on a 2-CPU host.
	tunePassSeconds = 30
	// linkCheckEvery checks the cold link and the edits at every n-th op:
	// a fresh full compile of the merged module takes several times as
	// long as an edit.
	linkCheckEvery = 48
)

// llvmEdges are the LLVM-shaped files' edge budgets (workload.LLVMCodebase);
// sqliteEdges is the SQLite-shaped unit's.
var llvmEdges = []int{60, 80, 90, 110, 120, 150, 170, 210, 260, 340}

const sqliteEdges = 670

// bigUnit generates one large unit of exactly the given edge budget with
// the named shape. The single-unit linked generator is used because
// workload.Generate draws each file's size at random (up to 6x the budget),
// which would make one pass's cost swing by several times between seeds.
func bigUnit(name string, edges int, shape workload.Profile) unit {
	lp := workload.LinkedProfile{Name: name, TUs: 1, EdgesPerTU: edges, Cluster: 1, Shape: shape}
	return renderUnit(workload.GenerateLinked(lp).Files[0])
}

// The LLVM- and SQLite-shaped profiles' shape knobs (workload.LLVMCodebase,
// workload.SQLiteAmalgamation).
var (
	llvmShape = workload.Profile{ConstArgProb: 0.35, HubProb: 0.3, BigBodyProb: 0.3,
		LoopProb: 0.35, RecProb: 0.1, BranchProb: 0.45, MultiRootPct: 0.15}
	sqliteShape = workload.Profile{ConstArgProb: 0.4, HubProb: 0.3, BigBodyProb: 0.25,
		LoopProb: 0.3, RecProb: 0.08, BranchProb: 0.5, MultiRootPct: 0.12}
)

// tuneOp is one planned op of a pass.
type tuneOp struct {
	kind string // "tune_size", "tune_weighted", "link_cold", "link_edit"
	u    unit
	tu   int // link_edit: unit index
}

// tunePass is one pass's inputs: its ops and the linked corpus's units.
type tunePass struct {
	ops []tuneOp
	tus []unit
}

// linkResult is one link tune's outcome.
type linkResult struct {
	key            string
	cfg            *callgraph.Config
	size, initSize int
	sample         bool
	// Checked results keep the unit contents the tune ran over.
	tus   []*ir.Module
	names []string
}

type tuneState struct {
	o        options
	passes   []tunePass
	sized    []result // size tunes
	weighted []result // cycle-weighted tunes
	links    []linkResult
	counters counters
	bytes    float64
	probes   float64
	unprof   int
}

func setupTune(o options) (state, error) {
	st := &tuneState{o: o}
	for v := 0; v < max(1, int(math.Ceil(o.seconds/tunePassSeconds))); v++ {
		st.passes = append(st.passes, buildTunePass(o, v))
	}
	return st, nil
}

func buildTunePass(o options, v int) tunePass {
	var p tunePass
	var others []tuneOp
	for i, e := range llvmEdges {
		name := seededName(fmt.Sprintf("llvm-lib/Component%02d", i), o.seed, v)
		others = append(others, tuneOp{kind: "tune_size", u: bigUnit(name, scaleInt(e, o.scale), llvmShape)})
	}
	others = append(others, tuneOp{kind: "tune_size",
		u: bigUnit(seededName("sqlite3", o.seed, v), scaleInt(sqliteEdges, o.scale), sqliteShape)})
	speed := workload.SPECSpeedSubset()
	for w := 0; w < weightedVariants; w++ {
		for _, u := range specUnits(o.seed, v*weightedVariants+w, o.scale, func(name string) bool { return speed[name] }) {
			others = append(others, tuneOp{kind: "tune_weighted", u: u})
		}
	}
	others = shuffled(others, o.seed, v)

	lp, _ := workload.LinkedProfileByName("linked-x10")
	lp.Name = seededName(lp.Name, o.seed, v)
	lp.TUs = scaleInt(lp.TUs, o.scale)
	bench := workload.GenerateLinked(lp)
	for _, f := range bench.Files {
		p.tus = append(p.tus, renderUnit(f))
	}
	p.ops = append(p.ops, tuneOp{kind: "link_cold"})
	edit := 0
	for i, op := range others {
		p.ops = append(p.ops, op)
		if (i+1)*tuneEdits/len(others) == edit {
			continue
		}
		edit++
		t := (edit - 1) % len(bench.Files)
		m := workload.MutateLinkedTU(bench.Files[t].Module, edit)
		p.ops = append(p.ops, tuneOp{kind: "link_edit", tu: t,
			u: unit{name: bench.Files[t].Name + ".ir", text: []byte(m.String())}})
	}
	return p
}

func (st *tuneState) close() {}

// timed runs the set-up passes whole, whatever the deadline: a pass's heavy
// single ops (the cold link, the SQLite-shaped unit) would otherwise make
// the op mix depend on where the deadline falls.
func (st *tuneState) timed(tr *tracer, _ time.Time) []opRec {
	var recs []opRec
	for _, p := range st.passes {
		recs = append(recs, st.runPass(tr, p, int64(len(recs)))...)
	}
	return recs
}

// linkRun holds one pass's link session and caches.
type linkRun struct {
	sess  *link.Session
	shard link.ShardOptions
	cur   []*ir.Module
	names []string
}

func (st *tuneState) runPass(tr *tracer, p tunePass, base int64) []opRec {
	fc := compile.NewFnCache()
	var lr linkRun
	recs := make([]opRec, 0, len(p.ops))
	for i, op := range p.ops {
		id := base + int64(i)
		counted := int(id) < st.o.minOps
		key := fmt.Sprintf("%s#%d", op.kind, id)
		rec := timeOp(tr, id, key, op.kind, func(o *opTrace) error {
			switch op.kind {
			case "link_cold":
				return st.linkCold(o, p, fc, &lr, counted)
			case "link_edit":
				return st.linkEdit(o, op, &lr, counted, int(id)%linkCheckEvery == 0)
			case "tune_size":
				return st.tuneSize(o, op.u, fc, counted)
			default:
				return st.tuneWeighted(o, op.u, fc, counted)
			}
		})
		recs = append(recs, rec)
	}
	return recs
}

// parse parses u and counts its bytes for source.bytes_per_s.
func (st *tuneState) parse(o *opTrace, u unit) (*ir.Module, error) {
	st.bytes += float64(len(u.text))
	return parse(o, u)
}

func (st *tuneState) tuneSize(o *opTrace, u unit, fc *compile.FnCache, counted bool) error {
	m, err := st.parse(o, u)
	if err != nil {
		return err
	}
	c := newCompiler(o, m, fc)
	g := c.Graph()
	var osCfg *callgraph.Config
	o.do("heuristic.os_config", func() { osCfg = heuristic.OsConfig(c.Module(), g) })
	var best, clean, inited autotune.Result
	o.do("autotune.combined", func() {
		best, clean, inited = autotune.Combined(c, osCfg, autotune.Options{Rounds: tuneRounds, Workers: st.o.workers})
	})
	st.probes += float64(len(g.Edges) * (len(clean.Rounds) + len(inited.Rounds)))
	if counted {
		st.counters.addCompiler(c)
	}
	st.sized = append(st.sized, result{key: u.name, u: u, cfg: best.Config, size: best.Size,
		osCfg: osCfg, osSize: inited.InitSize, sample: counted})
	return nil
}

func (st *tuneState) tuneWeighted(o *opTrace, u unit, fc *compile.FnCache, counted bool) error {
	m, err := st.parse(o, u)
	if err != nil {
		return err
	}
	c := newCompiler(o, m, fc)
	g := c.Graph()
	var osCfg *callgraph.Config
	o.do("heuristic.os_config", func() { osCfg = heuristic.OsConfig(c.Module(), g) })
	var prof *interp.Profile
	o.do("interp.collect", func() {
		var base *ir.Module
		if base, err = c.Build(callgraph.NewConfig()); err == nil {
			_, prof, err = interp.Collect(base, "entry", []int64{7}, interp.Options{Fuel: collectFuel})
		}
	})
	if errors.Is(err, interp.ErrFuel) {
		// The unit cannot be profiled within fuel: nothing to price.
		st.unprof++
		return nil
	}
	if err != nil {
		return err
	}
	var pr *compile.CyclePricer
	o.do("compile.new_cycle_pricer", func() { pr, err = c.NewCyclePricer(prof, compile.CycleOptions{}) })
	if err != nil {
		return err
	}
	var res autotune.Result
	o.do("autotune.tune_weighted", func() {
		res = autotune.TuneWeighted(c, pr, weightedLambda, nil, autotune.Options{Rounds: tuneRounds, Workers: st.o.workers})
	})
	st.probes += float64(len(g.Edges) * len(res.Rounds))
	if counted {
		st.counters.addCompiler(c)
		st.counters.addPricer(pr.Stats())
	}
	st.weighted = append(st.weighted, result{key: u.name, u: u, cfg: res.Config, size: res.Size,
		osCfg: osCfg, sample: counted})
	return nil
}

func (st *tuneState) linkTune(o *opTrace, lr *linkRun, counted bool) (link.TuneResult, error) {
	var (
		res  link.TuneResult
		info link.RelinkInfo
		err  error
	)
	o.do("link.tune", func() {
		res, info, err = lr.sess.Tune(link.TuneOptions{ShardOptions: lr.shard, Rounds: linkRounds, Init: link.InitOs})
	})
	if err == nil && counted {
		st.counters.solved += int64(info.ComponentsSolved)
		st.counters.replayed += int64(info.ComponentsReplayed)
		st.counters.evals += res.Evaluations
		st.counters.cfgHits += res.ConfigCache.Hits
		st.counters.cfgMisses += res.ConfigCache.Misses
		st.counters.fnHits += res.FuncCache.Hits
		st.counters.fnMisses += res.FuncCache.Misses
	}
	return res, err
}

func (st *tuneState) linkCold(o *opTrace, p tunePass, fc *compile.FnCache, lr *linkRun, counted bool) error {
	tus := make([]link.TU, len(p.tus))
	lr.cur = make([]*ir.Module, len(p.tus))
	lr.names = make([]string, len(p.tus))
	for i, u := range p.tus {
		m, err := st.parse(o, u)
		if err != nil {
			return err
		}
		lr.cur[i], lr.names[i] = m, u.name
		tus[i] = corpusTU(u.name, m)
	}
	var err error
	o.do("link.session_new", func() {
		lr.sess, err = link.NewSession(tus, link.SessionOptions{Results: link.NewComponentCache()})
	})
	if err != nil {
		return err
	}
	lr.shard = link.ShardOptions{Target: codegen.TargetX86, Compile: compile.Options{FnCache: fc}, Workers: st.o.workers}
	res, err := st.linkTune(o, lr, counted)
	if err != nil {
		return err
	}
	st.addLinkResult(lr, res, counted, true)
	return nil
}

func (st *tuneState) linkEdit(o *opTrace, op tuneOp, lr *linkRun, counted, check bool) error {
	m, err := st.parse(o, op.u)
	if err != nil {
		return err
	}
	var rep link.PatchReport
	o.do("link.patch", func() { rep, err = lr.sess.Replace(op.tu, corpusTU(op.u.name, m)) })
	if err != nil {
		return err
	}
	lr.cur[op.tu] = m
	if counted {
		st.counters.patches++
		if rep.PlanReused {
			st.counters.planReuses++
		}
	}
	res, err := st.linkTune(o, lr, counted)
	if err != nil {
		return err
	}
	st.addLinkResult(lr, res, counted, check)
	return nil
}

// addLinkResult records a link tune; check keeps the unit contents for a
// fresh recompile of the merged module.
func (st *tuneState) addLinkResult(lr *linkRun, res link.TuneResult, sample, check bool) {
	r := linkResult{key: fmt.Sprintf("link#%d", len(st.links)), cfg: res.Result.Config,
		size: res.Result.Size, initSize: res.Result.InitSize, sample: sample}
	if check {
		r.tus = append([]*ir.Module(nil), lr.cur...)
		r.names = lr.names
	}
	st.links = append(st.links, r)
}

// corpusTU wraps a parsed linked unit the way link.CorpusTUs does.
func corpusTU(name string, m *ir.Module) link.TU {
	tu := link.ModuleTU(name, m)
	tu.LocalGlobals = []string{workload.LinkedScratchGlobal}
	return tu
}

func (st *tuneState) layers() map[string]float64 {
	out := st.counters.metrics()
	out["source.bytes"] = st.bytes
	out["autotune.probes"] = st.probes
	return out
}

func (st *tuneState) check() (int, []string, quality) {
	var jobs []func(*checker)
	for _, r := range st.sized {
		jobs = append(jobs, func(ck *checker) {
			if _, _, ok := ck.check(r); ok && r.sample {
				ck.q.addSize(r.size, r.osSize)
			}
		})
	}
	// Weighted tunes trade bytes for cycles: their cycle ratio is the
	// quality signal, their size ratio is not.
	for _, r := range st.weighted {
		jobs = append(jobs, func(ck *checker) {
			if cycles, osCycles, ok := ck.check(r); ok && r.sample {
				ck.q.addCycles(cycles, osCycles)
			}
		})
	}
	for _, r := range st.links {
		jobs = append(jobs, func(ck *checker) {
			if r.sample {
				ck.q.addSize(r.size, r.initSize)
			}
			if r.tus != nil {
				ck.linked(r.key, r.names, r.tus, r.cfg, r.size)
			}
		})
	}
	ck := runChecks(st.o.workers, jobs)
	notes := ck.notes()
	if st.unprof > 0 {
		notes = append(notes, fmt.Sprintf("%d weighted units not profiled within fuel", st.unprof))
	}
	return ck.failed, notes, ck.q
}
