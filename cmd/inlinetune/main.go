// Command inlinetune runs the paper's local inlining autotuner on one
// translation unit and reports per-round progress.
//
// Usage:
//
//	inlinetune [flags] file.minc
//	inlinetune -link [flags] a.minc b.minc ...
//
//	-link                 link all argument files into one module (LTO-style)
//	                      and autotune it with per-component lockstep sessions
//	-no-shard             with -link: run the classic whole-module tuner on
//	                      one merged compiler (differential oracle — stdout
//	                      is byte-identical)
//	-link-dup p           with -link: exported symbols defined in several
//	                      units are an error (default) or renamed (rename)
//	-relink script        replay an edit script (patch <tu> <path> / tune
//	                      lines) against an incremental re-link session:
//	                      content-unchanged components replay their recorded
//	                      tuning trace, only dirty components probe edges
//	-no-relink            with -relink: cold full link at every step
//	                      (differential oracle — stdout is byte-identical)
//	-init clean|os|both   starting configuration(s) (default both)
//	-rounds N             tuning rounds (default 4)
//	-target x86|wasm      size model (default x86)
//	-jobs N               parallel per-edge evaluations (default and 0:
//	                      GOMAXPROCS; stdout is identical for every value)
//	-dot                  print the tuned call graph as DOT
//	-no-delta             disable the incremental delta-evaluation engines:
//	                      every probe prices a whole configuration, in bytes
//	                      and, for cycle objectives, in cycles (differential
//	                      oracle — stdout is byte-identical)
//	-exact-components N   after the rounds, re-solve exactly (branch-and-
//	                      bound) every call-graph component whose recursive
//	                      space fits N tree evaluations, under the tuned
//	                      labels of the rest (0 disables; try 4096)
//	-no-prune             make the exact-component polish use the exhaustive
//	                      recursion instead of branch-and-bound (oracle)
//	-no-fncache           disable the per-function compile cache: every
//	                      closure is compiled afresh (differential oracle)
//	-objective o          tuned objective: size (default), weighted
//	                      (bytes + lambda*cycles), cycles, or pareto (a
//	                      lambda sweep printing the size/speed frontier);
//	                      cycle objectives profile the no-inline baseline
//	                      once and reprice every probe incrementally
//	-lambda F             cycle weight for -objective weighted (default 0.1)
//	-lambdas l1,l2,...    interior weights for -objective pareto
//	-entry f, -args a,b   profiled root and arguments (default entry(7))
//	-fuel N               profiling interpretation fuel
//	-cache-bytes N        modelled i-cache capacity (0 = default)
//	-cache-dir d          persist the per-function content cache in directory d
//	-cpuprofile f         write a CPU profile to f
//	-memprofile f         write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/cli"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/link"
	"optinline/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinetune:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		eng        = cli.NewEngine(flag.CommandLine, "inlinetune")
		lk         = cli.NewLink(flag.CommandLine)
		target     = cli.Target(flag.CommandLine)
		initMode   = flag.String("init", "both", "starting point: clean|os|both")
		rounds     = flag.Int("rounds", 4, "tuning rounds")
		jobs       = cli.Jobs(flag.CommandLine)
		dot        = flag.Bool("dot", false, "print tuned call graph as DOT")
		groups     = flag.Bool("groups", false, "also test per-callee group inlining (paper 5.2.1 extension)")
		incr       = flag.Bool("incremental", false, "incremental rounds: only re-tune changed regions (paper 6 extension)")
		exactComps = flag.Uint64("exact-components", 0, "re-solve components whose recursive space fits N evaluations exactly after the rounds (0 = off)")
		objective  = flag.String("objective", "size", "tuned objective: size|weighted|cycles|pareto")
		lambda     = flag.Float64("lambda", 0.1, "cycle weight for -objective weighted")
		lambdas    = flag.String("lambdas", "0.01,0.1,1", "interior weights for -objective pareto (comma-separated)")
		entryName  = flag.String("entry", "entry", "profiled root function for cycle objectives")
		entryArgs  = flag.String("args", "7", "profiled root arguments (comma-separated integers)")
		fuel       = flag.Int64("fuel", 20_000_000, "profiling interpretation fuel")
		cacheBytes = flag.Int("cache-bytes", 0, "modelled i-cache capacity in bytes (0 = interpreter default)")
		noShard    = flag.Bool("no-shard", false, "with -link: whole-module tuner on one merged compiler (oracle)")
	)
	flag.Parse()
	stop, err := eng.Start()
	if err != nil {
		return err
	}
	defer stop()
	if !lk.Active() && flag.NArg() != 1 {
		return fmt.Errorf("usage: inlinetune [flags] file.minc")
	}
	if _, ok := initModes[*initMode]; !ok {
		return fmt.Errorf("unknown init mode %q", *initMode)
	}
	cf, err := parseCycleFlags(*objective, *lambda, *lambdas, *entryName, *entryArgs,
		*fuel, *cacheBytes)
	if err != nil {
		return err
	}
	if cf.objective != "size" && (*groups || *incr || *exactComps > 0) {
		return fmt.Errorf("-objective %s does not combine with -groups, -incremental, or -exact-components", cf.objective)
	}
	if lk.Active() {
		if cf.objective == "pareto" {
			return fmt.Errorf("-objective pareto does not combine with -link")
		}
		if flag.NArg() == 0 {
			return fmt.Errorf("usage: inlinetune -link [flags] a.minc b.minc ...")
		}
		opts := link.TuneOptions{ShardOptions: eng.Shard(*target, false, *jobs), Rounds: *rounds}
		if lk.Relink != "" {
			if *noShard {
				return fmt.Errorf("-relink replay is always sharded; -no-shard applies to one-shot -link runs")
			}
			err = runRelinkTune(lk, opts, *initMode, cf)
		} else {
			opts.NoShard = *noShard
			err = runLinkTune(lk, opts, *initMode, cf)
		}
		if err == nil {
			eng.Finish()
		}
		return err
	}
	mod, err := source.Load(flag.Arg(0))
	if err != nil {
		return err
	}
	comp := eng.NewCompiler(mod, *target, false)
	g := comp.Graph()
	osCfg := heuristic.OsConfig(comp.Module(), g)
	osSize := comp.Size(osCfg)
	noInline := comp.Size(callgraph.NewConfig())
	fmt.Printf("%s: %d inlinable calls; no-inline %d bytes, -Os %d bytes\n",
		flag.Arg(0), len(g.Edges), noInline, osSize)
	if cf.objective != "size" {
		if err := runCycleTune(comp, osCfg, cf, *initMode, *rounds, *jobs); err != nil {
			return err
		}
		eng.Finish()
		return nil
	}

	opts := autotune.ExtOptions{
		Options:      autotune.Options{Rounds: *rounds, Workers: *jobs},
		GroupCallees: *groups, Incremental: *incr,
		ExactComponents: *exactComps,
	}
	tune := func(fromOs bool) (autotune.Result, error) {
		return autotune.TuneExtended(comp, initConfig(fromOs, osCfg), opts), nil
	}
	report := func(name string, res autotune.Result) {
		fmt.Printf("\n%s (init %d bytes):\n", name, res.InitSize)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes (%.1f%% of -Os), %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, pct(r.Size, osSize), r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes (%.1f%% of -Os), inlining %v\n",
			res.Size, pct(res.Size, osSize), res.Config.InlineSites())
	}
	best, _, _ := tuneInits(*initMode, tune, report, func(r autotune.Result) float64 { return float64(r.Size) })

	fmt.Printf("\nfinal: %d bytes = %.1f%% of -Os (%.1f%% of no-inline), %d compilations\n",
		best.Size, pct(best.Size, osSize), pct(best.Size, noInline), comp.Evaluations())
	eng.Finish()
	if *dot {
		fmt.Println()
		fmt.Println(g.DOT(flag.Arg(0), best.Config))
	}
	return nil
}

// initModes maps each -init value to its starting points, in run order:
// false is the clean slate, true the -Os configuration.
var initModes = map[string][]bool{"clean": {false}, "os": {true}, "both": {false, true}}

// tuneInits runs one tuning session per starting point of the -init mode,
// then reports each (clean slate first) and returns the one of least cost,
// the clean slate on a tie, together with all of them. Every tuning path —
// single-file size and cycle objectives, -link and -relink — goes through
// it, so they choose and print identically.
func tuneInits[R any](mode string, tune func(fromOs bool) (R, error),
	report func(name string, r R), cost func(R) float64) (best R, all []R, err error) {
	starts := initModes[mode]
	for _, fromOs := range starts {
		r, err := tune(fromOs)
		if err != nil {
			return best, nil, err
		}
		all = append(all, r)
	}
	for i, fromOs := range starts {
		name := "clean slate"
		if fromOs {
			name = "-Os initialized"
		}
		report(name, all[i])
		if i == 0 || cost(all[i]) < cost(best) {
			best = all[i]
		}
	}
	return best, all, nil
}

// initConfig is the single-file starting configuration: nil (the clean
// slate) or the -Os labels.
func initConfig(fromOs bool, osCfg *callgraph.Config) *callgraph.Config {
	if fromOs {
		return osCfg
	}
	return nil
}

// linkInit is the linked-run starting point.
func linkInit(fromOs bool) link.TuneInit {
	if fromOs {
		return link.InitOs
	}
	return link.InitClean
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// cycleFlags bundles the cycle-objective knobs shared by the single-file
// and -link paths.
type cycleFlags struct {
	objective  string // size|weighted|cycles|pareto
	lambda     float64
	lambdas    []float64
	entry      string
	args       []int64
	fuel       int64
	cacheBytes int
}

func parseCycleFlags(objective string, lambda float64, lambdas, entry, args string,
	fuel int64, cacheBytes int) (cycleFlags, error) {
	cf := cycleFlags{
		objective: objective, lambda: lambda, entry: entry,
		fuel: fuel, cacheBytes: cacheBytes,
	}
	switch objective {
	case "size", "weighted", "cycles", "pareto":
	default:
		return cf, fmt.Errorf("-objective: unknown objective %q (want size, weighted, cycles, or pareto)", objective)
	}
	for _, f := range strings.Split(lambdas, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return cf, fmt.Errorf("-lambdas: bad weight %q", f)
		}
		cf.lambdas = append(cf.lambdas, v)
	}
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return cf, fmt.Errorf("-args: bad argument %q", a)
		}
		cf.args = append(cf.args, v)
	}
	return cf, nil
}

// pricerFor profiles the no-inline baseline and wraps it in a cycle pricer.
func pricerFor(comp *compile.Compiler, cf cycleFlags) (*compile.CyclePricer, *interp.Profile, error) {
	built, err := comp.Build(callgraph.NewConfig())
	if err != nil {
		return nil, nil, err
	}
	_, prof, err := interp.Collect(built, cf.entry, cf.args, interp.Options{Fuel: cf.fuel})
	if err != nil {
		return nil, nil, fmt.Errorf("profiling %s%v: %w", cf.entry, cf.args, err)
	}
	pricer, err := comp.NewCyclePricer(prof, compile.CycleOptions{CacheBytes: cf.cacheBytes})
	return pricer, prof, err
}

// runCycleTune tunes one translation unit for a cycle-aware objective.
// stdout is byte-identical with and without -no-delta.
func runCycleTune(comp *compile.Compiler, osCfg *callgraph.Config, cf cycleFlags,
	initMode string, rounds, workers int) error {
	pricer, prof, err := pricerFor(comp, cf)
	if err != nil {
		return err
	}
	fmt.Printf("profiled %s%v: %d frames, %d cycles at no-inline (i-cache %d bytes)\n",
		cf.entry, cf.args, prof.TotalFrames(), prof.Res.Cycles, pricer.CacheBytes())
	opts := autotune.Options{Rounds: rounds, Workers: workers}

	if cf.objective == "pareto" {
		pts := autotune.Pareto(comp, pricer, nil, cf.lambdas, opts)
		fmt.Printf("\npareto frontier (%d points):\n", len(pts))
		for _, p := range pts {
			fmt.Printf("  lambda %8s: %6d bytes, %10d cycles, inlining %d of %d sites\n",
				lambdaLabel(p.Lambda), p.Size, p.Cycles, p.Config.InlineCount(), len(comp.Graph().Sites()))
		}
		fmt.Fprintf(os.Stderr, "cycle pricer: %v\n", pricer.Stats())
		return nil
	}

	tune := func(fromOs bool) (autotune.Result, error) {
		init := initConfig(fromOs, osCfg)
		if cf.objective == "cycles" {
			return autotune.TuneCycles(comp, pricer, init, opts), nil
		}
		return autotune.TuneWeighted(comp, pricer, cf.lambda, init, opts), nil
	}
	report := func(name string, res autotune.Result) {
		fmt.Printf("\n%s, objective %s (init %d bytes, %d cycles):\n",
			name, objectiveLabel(cf), res.InitSize, res.InitCycles)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes, %d cycles, %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, r.Cycles, r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes, %d cycles, inlining %v\n",
			res.Size, res.Cycles, res.Config.InlineSites())
	}
	best, _, _ := tuneInits(initMode, tune, report, func(r autotune.Result) float64 {
		return cf.cost(r.Size, r.Cycles)
	})
	fmt.Printf("\nfinal: %d bytes, %d cycles, %d compilations\n",
		best.Size, best.Cycles, comp.Evaluations())
	fmt.Fprintf(os.Stderr, "cycle pricer: %v\n", pricer.Stats())
	return nil
}

// cost is the objective value of a result with the given size and cycles.
func (cf cycleFlags) cost(size int, cycles int64) float64 {
	switch cf.objective {
	case "cycles":
		return float64(cycles)
	case "weighted":
		return float64(size) + cf.lambda*float64(cycles)
	}
	return float64(size)
}

func lambdaLabel(l float64) string {
	switch {
	case l == 0:
		return "size"
	case math.IsInf(l, 1):
		return "cycles"
	default:
		return fmt.Sprintf("%g", l)
	}
}

func objectiveLabel(cf cycleFlags) string {
	if cf.objective == "weighted" {
		return fmt.Sprintf("bytes + %g*cycles", cf.lambda)
	}
	return cf.objective
}

// runLinkTune links the argument files and autotunes the merged module with
// per-component lockstep sessions (or the -no-shard whole-module oracle).
// stdout is mode-independent; counters go to stderr.
func runLinkTune(lk *cli.Link, opts link.TuneOptions, initMode string, cf cycleFlags) error {
	lopts, err := lk.Options()
	if err != nil {
		return err
	}
	l, err := link.New(cli.FileTUs(flag.Args()), lopts)
	if err != nil {
		return err
	}
	pl := l.Plan()
	printLinkTunePlanLine(pl)

	cycleAware := cf.objective != "size"
	if cycleAware {
		switch cf.objective {
		case "weighted":
			opts.Objective = link.ObjectiveWeighted
		case "cycles":
			opts.Objective = link.ObjectiveCycles
		}
		opts.Lambda = cf.lambda
		opts.Entry = cf.entry
		opts.Args = cf.args
		opts.Fuel = cf.fuel
		opts.CacheBytes = cf.cacheBytes
	}
	report := func(name string, tr link.TuneResult) {
		if !cycleAware {
			reportLinkTuneSize(pl, name, tr)
			return
		}
		res := tr.Result
		fmt.Printf("\n%s, objective %s (init %d bytes, %d cycles):\n",
			name, objectiveLabel(cf), res.InitSize, res.InitCycles)
		for _, r := range res.Rounds {
			fmt.Printf("  round %d: %d bytes, %d cycles, %d inlined / %d not, %d toggles\n",
				r.Round, r.Size, r.Cycles, r.Inlined, r.NotInlined, r.Toggles)
		}
		fmt.Printf("  best: %d bytes, %d cycles, inlining %d of %d sites\n",
			res.Size, res.Cycles, res.Config.InlineCount(), len(pl.Edges))
		printTuneComponents(tr)
	}
	tune := func(fromOs bool) (link.TuneResult, error) {
		o := opts
		o.Init = linkInit(fromOs)
		return l.Tune(o)
	}
	best, all, err := tuneInits(initMode, tune, report, func(tr link.TuneResult) float64 {
		return cf.cost(tr.Result.Size, tr.Result.Cycles)
	})
	if err != nil {
		return err
	}
	var evals int64
	for _, tr := range all {
		evals += tr.Evaluations
	}
	if cycleAware {
		fmt.Printf("\nfinal: %d bytes, %d cycles, inlining %d of %d sites\n",
			best.Result.Size, best.Result.Cycles, best.Result.Config.InlineCount(), len(pl.Edges))
		fmt.Fprintf(os.Stderr, "cycle pricer: %v\n", best.Cycle)
	} else {
		fmt.Printf("\nfinal: %d bytes, inlining %d of %d sites\n",
			best.Result.Size, best.Result.Config.InlineCount(), len(pl.Edges))
	}

	fmt.Fprintf(os.Stderr, "evaluations: %d compilations (config cache %v)\n", evals, best.ConfigCache)
	fmt.Fprintf(os.Stderr, "function cache: %v\n", best.FuncCache)
	return nil
}

func printLinkTunePlanLine(pl *link.Plan) {
	fmt.Printf("linked %d TUs: %d functions, %d inlinable call sites (%d cross-TU, %d locals renamed), %d components\n",
		len(pl.TUs), len(pl.Funcs), len(pl.Edges), pl.CrossTU, pl.Renamed, len(pl.Components))
}

func printTuneComponents(tr link.TuneResult) {
	for _, cs := range tr.Components {
		fmt.Printf("    component %2d: %3d funcs, %3d sites, inlined %3d\n",
			cs.Index, cs.Funcs, cs.Edges, cs.Inlined)
	}
}

// reportLinkTuneSize renders one size-objective tuning report. Both the
// one-shot -link path and both -relink replay modes print through it, so
// the -no-relink byte-diff gate holds by construction.
func reportLinkTuneSize(pl *link.Plan, name string, tr link.TuneResult) {
	res := tr.Result
	fmt.Printf("\n%s (init %d bytes):\n", name, res.InitSize)
	for _, r := range res.Rounds {
		fmt.Printf("  round %d: %d bytes, %d inlined / %d not, %d toggles\n",
			r.Round, r.Size, r.Inlined, r.NotInlined, r.Toggles)
	}
	fmt.Printf("  best: %d bytes, inlining %d of %d sites\n",
		res.Size, res.Config.InlineCount(), len(pl.Edges))
	printTuneComponents(tr)
}

// runRelinkTune replays a -relink edit script of patch and tune steps; a
// warm tune step replays the recorded per-round trace of every
// content-unchanged component and probes edges only in dirty ones. Cycle
// objectives are rejected up front in both modes: the session's typed
// link.CycleObjectiveError would only fire warm, and a mode-dependent
// error would break the -no-relink byte-diff.
func runRelinkTune(lk *cli.Link, opts link.TuneOptions, initMode string, cf cycleFlags) error {
	if cf.objective != "size" {
		return fmt.Errorf("-relink replays the size objective only; -objective %s needs a whole-program profile that edits invalidate (run one-shot -link instead)", cf.objective)
	}
	return lk.Replay(flag.Args(), "tune", func(st *cli.Step) error {
		fmt.Printf("== step %d: tune ==\n", st.N)
		printLinkTunePlanLine(st.Plan)
		tune := func(fromOs bool) (link.TuneResult, error) {
			o := opts
			o.Init = linkInit(fromOs)
			return st.Tune(o)
		}
		report := func(name string, tr link.TuneResult) { reportLinkTuneSize(st.Plan, name, tr) }
		best, _, err := tuneInits(initMode, tune, report, func(tr link.TuneResult) float64 {
			return float64(tr.Result.Size)
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nfinal: %d bytes, inlining %d of %d sites\n",
			best.Result.Size, best.Result.Config.InlineCount(), len(st.Plan.Edges))
		return nil
	})
}
