// Command mincc compiles a MinC source file (or textual IR) down to the
// toy ISA and reports code size. It exposes the inlining strategies of the
// library: none, the -Os-style heuristic, the local autotuner, or the
// exhaustive optimum.
//
// Usage:
//
//	mincc [flags] file.minc
//	mincc -link [flags] a.minc b.minc ...
//
//	-link                          link all argument files into one module
//	                               (LTO-style) before inlining: cross-file
//	                               calls become candidates, file-local name
//	                               collisions are renamed apart
//	-link-dup error|rename         duplicate exported symbol policy for -link
//	-relink script                 with -inline optimal: replay an edit script
//	                               (patch <tu> <path> / search lines) against
//	                               an incremental re-link session; unchanged
//	                               components replay their cached optimum
//	-no-relink                     with -relink: cold full link at every step
//	                               (differential oracle — stdout is identical)
//	-inline none|os|tune|optimal   inlining strategy (default os)
//	-target x86|wasm               size model (default x86)
//	-S                             print the pseudo-assembly listing
//	-emit-ir                       print the optimized IR
//	-run <entry>                   interpret entry after compiling
//	-arg N                         integer argument for -run (repeatable)
//	-rounds N                      autotuner rounds for -inline tune
//	-check                         checked compilation: verify IR invariants
//	                               after every inline step and opt pass
//	-no-delta                      disable the incremental delta-evaluation
//	                               engine for -inline tune|optimal
//	-no-prune                      disable the branch-and-bound layer for
//	                               -inline optimal (differential oracle)
//	-no-fncache                    disable the per-function compile cache:
//	                               every closure is compiled afresh
//	                               (differential oracle)
//	-cache-dir d                   persist the per-function content cache in
//	                               directory d across runs
//	-cpuprofile f                  write a CPU profile to f
//	-memprofile f                  write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/cli"
	"optinline/internal/codegen"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/outline"
	"optinline/internal/search"
	"optinline/internal/source"
)

type intList []int64

func (l *intList) String() string { return fmt.Sprint(*l) }
func (l *intList) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mincc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		eng        = cli.NewEngine(flag.CommandLine, "mincc")
		lk         = cli.NewLink(flag.CommandLine)
		target     = cli.Target(flag.CommandLine)
		inlineMode = flag.String("inline", "os", "inlining strategy: none|os|tune|optimal")
		listing    = flag.Bool("S", false, "print pseudo-assembly listing")
		emitIR     = flag.Bool("emit-ir", false, "print optimized IR")
		entry      = flag.String("run", "", "interpret this entry function after compiling")
		rounds     = flag.Int("rounds", 1, "autotuner rounds for -inline tune")
		doOutline  = flag.Bool("outline", false, "run the size outliner after inlining")
		check      = flag.Bool("check", false, "checked compilation: verify IR invariants after every inline step and opt pass")
		args       intList
	)
	flag.Var(&args, "arg", "integer argument for -run (repeatable)")
	flag.Parse()
	stop, err := eng.Start()
	if err != nil {
		return err
	}
	defer stop()
	if lk.Active() {
		if flag.NArg() == 0 {
			return fmt.Errorf("usage: mincc -link [flags] a.minc b.minc ...")
		}
	} else if flag.NArg() != 1 {
		return fmt.Errorf("usage: mincc [flags] file.minc")
	}
	if lk.Relink != "" {
		if *inlineMode != "optimal" {
			return fmt.Errorf("-relink caches per-component optima; it requires -inline optimal (got -inline %s)", *inlineMode)
		}
		if err := runRelinkCC(lk, link.SearchOptions{
			ShardOptions: eng.Shard(*target, *check, 0),
			MaxSpace:     1 << 22,
		}); err != nil {
			return err
		}
		eng.Finish()
		return nil
	}

	var mod *ir.Module
	if lk.Enabled {
		lopts, err := lk.Options()
		if err != nil {
			return err
		}
		if mod, err = link.Link(cli.FileTUs(flag.Args()), lopts); err != nil {
			return err
		}
	} else if mod, err = source.Load(flag.Arg(0)); err != nil {
		return err
	}
	comp := eng.NewCompiler(mod, *target, *check)
	g := comp.Graph()

	var cfg *callgraph.Config
	switch *inlineMode {
	case "none":
		cfg = callgraph.NewConfig()
	case "os":
		cfg = heuristic.OsConfig(comp.Module(), g)
	case "tune":
		init := heuristic.OsConfig(comp.Module(), g)
		best, _, _ := autotune.Combined(comp, init, autotune.Options{Rounds: *rounds})
		cfg = best.Config
	case "optimal":
		res, ok := search.Optimal(comp, search.Options{MaxSpace: 1 << 22})
		if !ok {
			return fmt.Errorf("search space too large for exhaustive search (%d+ evaluations); use -inline tune", res.SpaceSize)
		}
		cfg = res.Config
	default:
		return fmt.Errorf("unknown inline mode %q", *inlineMode)
	}

	built, err := comp.Build(cfg)
	if err != nil {
		return err
	}
	if cerr := comp.CheckFailure(); cerr != nil {
		// A search/tune strategy hit an invariant violation on some
		// configuration along the way, even if the final build succeeded.
		return cerr
	}
	if *doOutline {
		st := outline.Module(built, outline.Options{Target: *target})
		if st.FunctionsCreated > 0 {
			fmt.Printf("outliner: %d functions extracted, %d calls inserted\n",
				st.FunctionsCreated, st.CallsInserted)
		}
	}
	size := codegen.ModuleSize(built, *target)
	label := flag.Arg(0)
	if lk.Enabled {
		label = fmt.Sprintf("linked(%d files)", flag.NArg())
	}
	fmt.Printf("%s: %d inlinable calls, %d inlined, .text %d bytes (%s, -inline %s)\n",
		label, len(g.Edges), cfg.InlineCount(), size, *target, *inlineMode)
	eng.Finish()

	if *emitIR {
		fmt.Println(built.String())
	}
	if *listing {
		fmt.Println(codegen.Listing(built, *target))
	}
	if *entry != "" {
		res, err := interp.Run(built, *entry, args, interp.Options{
			SizeOf: codegen.SizeOf(built, *target),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s(%v) = %d  [%d steps, %d cycles, %d outputs]\n",
			*entry, []int64(args), res.Ret, res.Steps, res.Cycles, res.OutputLen)
	}
	return nil
}

// runRelinkCC replays a -relink edit script: search steps print the mincc
// one-line summary of the linked optimum, computed from the search result
// alone, without materializing the linked module.
func runRelinkCC(lk *cli.Link, opts link.SearchOptions) error {
	return lk.Replay(flag.Args(), "search", func(st *cli.Step) error {
		res, ok, err := st.Search(opts)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("step %d: search space too large for exhaustive search; use inlinesearch -relink -max-space", st.N)
		}
		fmt.Printf("linked(%d files): %d inlinable calls, %d inlined, .text %d bytes (%s, -inline optimal)\n",
			flag.NArg(), len(st.Plan.Edges), res.Config.InlineCount(), res.Size, opts.Target)
		return nil
	})
}
