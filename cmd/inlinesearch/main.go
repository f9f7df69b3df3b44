// Command inlinesearch exhaustively searches the recursively partitioned
// inlining space of one translation unit and reports the optimal
// configuration, comparing it with the -Os heuristic (the paper's roofline
// analysis for a single file).
//
// Usage:
//
//	inlinesearch [flags] file.minc
//	inlinesearch -link [flags] a.minc b.minc ...
//
//	-link               link all argument files into one module (LTO-style)
//	                    and run the component-sharded optimal search on it
//	-no-shard           with -link: solve the same components on one merged
//	                    compiler instead of per-component sub-modules
//	                    (differential oracle — stdout is byte-identical)
//	-link-dup p         with -link: exported symbols defined in several units
//	                    are an error (default) or are renamed apart (rename)
//	-relink script      replay an edit script (patch <tu> <path> / search
//	                    lines) against an incremental re-link session:
//	                    content-unchanged components replay their cached
//	                    optimum, only dirty components are re-searched
//	-no-relink          with -relink: re-link and search from scratch at
//	                    every step (differential oracle — stdout is
//	                    byte-identical to the incremental session)
//	-target x86|wasm    size model (default x86)
//	-max-space N        abort if the recursive space exceeds N evaluations
//	                    (with -link the bound applies per component)
//	-jobs N             parallel subtree evaluations (default and 0:
//	                    GOMAXPROCS; results are bit-identical for every
//	                    value)
//	-dot                print optimal-vs-heuristic call graphs as DOT
//	-check              checked compilation: verify IR invariants after
//	                    every inline step and opt pass of every evaluation
//	-no-delta           disable the incremental delta-evaluation engine;
//	                    leaf/combine evaluations price whole configurations
//	-no-prune           disable the branch-and-bound layer (component memo +
//	                    admissible bounds); run the exhaustive recursion
//	                    instead (differential oracle — output is identical)
//	-no-fncache         disable the per-function compile cache: every closure
//	                    is compiled afresh (differential oracle — stdout is
//	                    byte-identical)
//	-cache-dir d        persist the per-function content cache in directory d
//	-cpuprofile f       write a CPU profile to f
//	-memprofile f       write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"optinline/internal/callgraph"
	"optinline/internal/cli"
	"optinline/internal/heuristic"
	"optinline/internal/link"
	"optinline/internal/search"
	"optinline/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinesearch:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		eng      = cli.NewEngine(flag.CommandLine, "inlinesearch")
		lk       = cli.NewLink(flag.CommandLine)
		target   = cli.Target(flag.CommandLine)
		maxSpace = flag.Uint64("max-space", 1<<20, "abort beyond this many evaluations")
		jobs     = cli.Jobs(flag.CommandLine)
		dot      = flag.Bool("dot", false, "print DOT call graphs (optimal vs heuristic)")
		tree     = flag.Bool("tree", false, "print the materialized inlining tree (paper Figure 6)")
		check    = flag.Bool("check", false, "checked compilation: verify IR invariants after every inline step and opt pass")
		noShard  = flag.Bool("no-shard", false, "with -link: single merged compiler instead of per-component shards (oracle)")
	)
	flag.Parse()
	stop, err := eng.Start()
	if err != nil {
		return err
	}
	defer stop()
	if lk.Active() {
		if flag.NArg() == 0 {
			return fmt.Errorf("usage: inlinesearch -link [flags] a.minc b.minc ...")
		}
		opts := link.SearchOptions{
			ShardOptions: eng.Shard(*target, *check, *jobs),
			MaxSpace:     *maxSpace,
		}
		opts.NoShard = *noShard
		if lk.Relink != "" {
			if *noShard {
				return fmt.Errorf("-relink replay is always sharded; -no-shard applies to one-shot -link runs")
			}
			err = runRelink(lk, opts)
		} else {
			err = runLink(lk, opts)
		}
		if err == nil {
			eng.Finish()
		}
		return err
	}
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: inlinesearch [flags] file.minc")
	}
	mod, err := source.Load(flag.Arg(0))
	if err != nil {
		return err
	}
	comp := eng.NewCompiler(mod, *target, *check)
	g := comp.Graph()
	fmt.Printf("%s: %d functions, %d inlinable call sites\n", flag.Arg(0), len(g.Nodes), len(g.Edges))
	fmt.Printf("naive space: 2^%.0f configurations\n", search.NaiveSpaceLog2(g))
	rec, capped := search.RecursiveSpaceSize(g, *maxSpace)
	if capped {
		return fmt.Errorf("recursive space exceeds %d evaluations; raise -max-space", *maxSpace)
	}
	fmt.Printf("recursively partitioned space: %d evaluations (2^%.1f)\n", rec, math.Log2(float64(rec)))

	res, ok := search.Optimal(comp, search.Options{Workers: *jobs, MaxSpace: *maxSpace})
	if !ok {
		return fmt.Errorf("search aborted")
	}
	noInline := comp.Size(callgraph.NewConfig())
	hc := heuristic.OsConfig(comp.Module(), g)
	heurSize := comp.Size(hc)

	// stdout is mode-independent (the -no-fncache and -no-prune gates
	// byte-diff it); evaluation and cache counters go to stderr.
	fmt.Printf("\nno inlining:    %6d bytes\n", noInline)
	fmt.Printf("-Os heuristic:  %6d bytes (%.1f%% of optimal)\n", heurSize, f(heurSize, res.Size))
	fmt.Printf("optimal:        %6d bytes, inlining %d of %d sites\n", res.Size, res.Config.InlineCount(), len(g.Edges))
	fmt.Printf("optimal inline sites: %v\n", res.Config.InlineSites())

	matrix := callgraph.Agreement(g.Sites(), res.Config, hc)
	fmt.Printf("agreement optimal-vs-heuristic: both-no %d, heur-only %d, opt-only %d, both %d\n",
		matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1])
	fmt.Fprintf(os.Stderr, "evaluations: %d configurations compiled (config cache %v)\n", res.Evaluations, comp.ConfigCacheStats())
	fmt.Fprintf(os.Stderr, "search pruning: %v\n", res.Prune)
	fmt.Fprintf(os.Stderr, "function cache: %v\n", comp.FuncCacheStats())
	eng.Finish()

	if comp.Checked() {
		if err := comp.CheckFailure(); err != nil {
			return fmt.Errorf("invariant violation during search: %w", err)
		}
		fmt.Printf("checked mode: all %d evaluations passed per-step verification\n", comp.Evaluations())
	}

	if *dot {
		fmt.Println()
		fmt.Println(g.SideBySideDOT(flag.Arg(0), "optimal", res.Config, "heuristic", hc))
	}
	if *tree {
		root, err := search.BuildTree(g, 1<<12)
		if err != nil {
			fmt.Printf("\ninlining tree: %v (too large to materialize)\n", err)
		} else {
			fmt.Printf("\ninlining tree (Figure 6 view):\n%s", root.String())
		}
	}
	return nil
}

func f(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

func printLinkPlanLine(pl *link.Plan) {
	fmt.Printf("linked %d TUs: %d functions, %d inlinable call sites (%d cross-TU, %d locals renamed, %d calls stay external)\n",
		len(pl.TUs), len(pl.Funcs), len(pl.Edges), pl.CrossTU, pl.Renamed, pl.ExternalCalls)
}

// printLinkSearchReport renders the mode-independent stdout block of one
// linked search; the -no-shard and -no-relink differential gates byte-diff
// it, so nothing schedule- or cache-dependent may appear here.
func printLinkSearchReport(pl *link.Plan, res link.SearchResult) {
	fmt.Printf("components: %d, recursive space %d evaluations total\n", len(res.Components), res.SpaceTotal)
	for _, cs := range res.Components {
		fmt.Printf("  component %2d: %3d funcs, %3d sites, space %8d, inlined %3d, delta %+d bytes\n",
			cs.Index, cs.Funcs, cs.Edges, cs.Space, cs.Inlined, cs.SizeDelta)
	}
	fmt.Printf("\nno inlining:    %6d bytes\n", res.NoInlineSize)
	fmt.Printf("optimal:        %6d bytes, inlining %d of %d sites\n",
		res.Size, res.Config.InlineCount(), len(pl.Edges))
	fmt.Printf("optimal inline sites: %v\n", res.Config.InlineSites())
}

func reportCapped(res link.SearchResult, maxSpace uint64) error {
	for _, cs := range res.Components {
		if cs.Capped {
			fmt.Fprintf(os.Stderr, "component %d: %d sites, recursive space %d+ evaluations\n",
				cs.Index, cs.Edges, cs.Space)
		}
	}
	return fmt.Errorf("a component's recursive space exceeds %d evaluations; raise -max-space", maxSpace)
}

// runLink links the argument files and runs the component-sharded optimal
// search (or the -no-shard merged oracle). Everything printed on stdout is
// mode-independent — the CI gate byte-diffs the two modes — while
// schedule- and mode-dependent counters go to stderr.
func runLink(lk *cli.Link, opts link.SearchOptions) error {
	lopts, err := lk.Options()
	if err != nil {
		return err
	}
	l, err := link.New(cli.FileTUs(flag.Args()), lopts)
	if err != nil {
		return err
	}
	pl := l.Plan()
	printLinkPlanLine(pl)

	res, ok, err := l.OptimalSearch(opts)
	if err != nil {
		return err
	}
	if !ok {
		return reportCapped(res, opts.MaxSpace)
	}
	printLinkSearchReport(pl, res)

	fmt.Fprintf(os.Stderr, "evaluations: %d configurations compiled (config cache %v)\n",
		res.Evaluations, res.ConfigCache)
	fmt.Fprintf(os.Stderr, "search pruning: %v\n", res.Prune)
	fmt.Fprintf(os.Stderr, "function cache: %v\n", res.FuncCache)
	return nil
}

// runRelink replays a -relink edit script; each search step reports the
// optimal search over the current unit set.
func runRelink(lk *cli.Link, opts link.SearchOptions) error {
	return lk.Replay(flag.Args(), "search", func(st *cli.Step) error {
		fmt.Printf("== step %d: search ==\n", st.N)
		res, ok, err := st.Search(opts)
		if err != nil {
			return err
		}
		if !ok {
			return reportCapped(res, opts.MaxSpace)
		}
		printLinkPlanLine(st.Plan)
		printLinkSearchReport(st.Plan, res)
		return nil
	})
}
