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
//	-jobs N             parallel subtree evaluations (default GOMAXPROCS;
//	                    results are bit-identical for every value)
//	-dot                print optimal-vs-heuristic call graphs as DOT
//	-check              checked compilation: verify IR invariants after
//	                    every inline step and opt pass of every evaluation
//	-no-delta           disable the incremental delta-evaluation engine;
//	                    leaf/combine evaluations price whole configurations
//	-no-prune           disable the branch-and-bound layer (component memo +
//	                    admissible bounds); run the exhaustive recursion
//	                    instead (differential oracle — output is identical)
//	-no-fncache         disable the content-addressed per-function compile
//	                    cache (differential oracle — sizes are identical)
//	-cache-dir d        persist the per-function content cache in directory d
//	-cpuprofile f       write a CPU profile to f
//	-memprofile f       write a heap profile to f at exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/ir"
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
		targetName = flag.String("target", "x86", "size model: x86|wasm")
		maxSpace   = flag.Uint64("max-space", 1<<20, "abort beyond this many evaluations")
		jobs       = flag.Int("jobs", 0, "parallel subtree evaluations (0 = GOMAXPROCS)")
		dot        = flag.Bool("dot", false, "print DOT call graphs (optimal vs heuristic)")
		tree       = flag.Bool("tree", false, "print the materialized inlining tree (paper Figure 6)")
		check      = flag.Bool("check", false, "checked compilation: verify IR invariants after every inline step and opt pass")
		noDelta    = flag.Bool("no-delta", false, "disable the incremental delta-evaluation engine (differential oracle)")
		noPrune    = flag.Bool("no-prune", false, "disable the branch-and-bound search layer (differential oracle)")
		noFnCache  = flag.Bool("no-fncache", false, "disable the content-addressed per-function cache (differential oracle)")
		cacheDir   = flag.String("cache-dir", "", "persist the per-function content cache in this directory")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		doLink     = flag.Bool("link", false, "link all argument files into one module and search it component-sharded")
		noShard    = flag.Bool("no-shard", false, "with -link: single merged compiler instead of per-component shards (oracle)")
		linkDup    = flag.String("link-dup", "error", "with -link: duplicate exported symbol policy: error|rename")
		relink     = flag.String("relink", "", "with -link: replay an edit script against an incremental session")
		noRelink   = flag.Bool("no-relink", false, "with -relink: cold full link at every step (differential oracle)")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "inlinesearch: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "inlinesearch: -memprofile:", err)
			}
		}()
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	if !*doLink && *relink == "" && flag.NArg() != 1 {
		return fmt.Errorf("usage: inlinesearch [flags] file.minc")
	}
	target := codegen.TargetX86
	if *targetName == "wasm" {
		target = codegen.TargetWASM
	}
	fncache, err := compile.OpenFnCache(*cacheDir)
	if err != nil {
		return err
	}
	if *doLink || *relink != "" {
		return runLink(linkRun{
			files: flag.Args(), target: target, maxSpace: *maxSpace, jobs: *jobs,
			check: *check, noDelta: *noDelta, noPrune: *noPrune, noFnCache: *noFnCache,
			fncache: fncache, cacheDir: *cacheDir, noShard: *noShard, dup: *linkDup,
			relink: *relink, noRelink: *noRelink,
		})
	}
	mod, err := source.Load(flag.Arg(0))
	if err != nil {
		return err
	}
	comp := compile.NewWithOptions(mod, target, compile.Options{Check: *check, FnCache: fncache})
	if *noDelta {
		comp.SetDelta(false)
	}
	if *noFnCache {
		comp.SetFnCache(false)
	}
	g := comp.Graph()
	fmt.Printf("%s: %d functions, %d inlinable call sites\n", flag.Arg(0), len(g.Nodes), len(g.Edges))
	fmt.Printf("naive space: 2^%.0f configurations\n", search.NaiveSpaceLog2(g))
	rec, capped := search.RecursiveSpaceSize(g, *maxSpace)
	if capped {
		return fmt.Errorf("recursive space exceeds %d evaluations; raise -max-space", *maxSpace)
	}
	fmt.Printf("recursively partitioned space: %d evaluations (2^%.1f)\n", rec, math.Log2(float64(rec)))

	res, ok := search.Optimal(comp, search.Options{Workers: *jobs, MaxSpace: *maxSpace, NoPrune: *noPrune})
	if !ok {
		return fmt.Errorf("search aborted")
	}
	fmt.Fprintf(os.Stderr, "search pruning: %v\n", res.Prune)
	if *cacheDir != "" {
		if err := fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "inlinesearch:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "fn content cache: %v\n", fncache.Stats())
	noInline := comp.Size(callgraph.NewConfig())
	hc := heuristic.OsConfig(comp.Module(), g)
	heurSize := comp.Size(hc)

	fmt.Printf("\nno inlining:    %6d bytes\n", noInline)
	fmt.Printf("-Os heuristic:  %6d bytes (%.1f%% of optimal)\n", heurSize, f(heurSize, res.Size))
	fmt.Printf("optimal:        %6d bytes, inlining %d of %d sites\n", res.Size, res.Config.InlineCount(), len(g.Edges))
	fmt.Printf("evaluations: %d configurations compiled (config cache %v)\n", res.Evaluations, comp.ConfigCacheStats())
	fmt.Printf("function cache: %v\n", comp.FuncCacheStats())
	fmt.Printf("optimal inline sites: %v\n", res.Config.InlineSites())

	matrix := callgraph.Agreement(g.Sites(), res.Config, hc)
	fmt.Printf("agreement optimal-vs-heuristic: both-no %d, heur-only %d, opt-only %d, both %d\n",
		matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1])

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

// linkRun carries the parsed flags of a -link invocation.
type linkRun struct {
	files                              []string
	target                             codegen.Target
	maxSpace                           uint64
	jobs                               int
	check, noDelta, noPrune, noFnCache bool
	noShard                            bool
	dup, cacheDir                      string
	fncache                            *compile.FnCache
	relink                             string // edit-script path; "" = one-shot
	noRelink                           bool   // replay with cold full links (oracle)
}

func parseDupPolicy(name string) (link.DupPolicy, error) {
	switch name {
	case "error":
		return link.DupExportedError, nil
	case "rename":
		return link.DupExportedRename, nil
	}
	return 0, fmt.Errorf("-link-dup: unknown policy %q (want error or rename)", name)
}

// searchOptions assembles the shared search options of a -link run.
func (p linkRun) searchOptions() link.SearchOptions {
	return link.SearchOptions{
		ShardOptions: link.ShardOptions{
			Target:  p.target,
			Compile: compile.Options{Check: p.check, FnCache: p.fncache},
			Configure: func(c *compile.Compiler) {
				if p.noDelta {
					c.SetDelta(false)
				}
				if p.noFnCache {
					c.SetFnCache(false)
				}
			},
			Workers: p.jobs,
			NoShard: p.noShard,
		},
		MaxSpace: p.maxSpace,
		NoPrune:  p.noPrune,
	}
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
func runLink(p linkRun) error {
	if len(p.files) == 0 {
		return fmt.Errorf("usage: inlinesearch -link [flags] a.minc b.minc ...")
	}
	dup, err := parseDupPolicy(p.dup)
	if err != nil {
		return err
	}
	if p.relink != "" {
		return runRelink(p, dup)
	}
	l, err := link.New(fileTUs(p.files), link.Options{DupExported: dup})
	if err != nil {
		return err
	}
	pl := l.Plan()
	printLinkPlanLine(pl)

	res, ok, err := l.OptimalSearch(p.searchOptions())
	if err != nil {
		return err
	}
	if !ok {
		return reportCapped(res, p.maxSpace)
	}
	printLinkSearchReport(pl, res)

	fmt.Fprintf(os.Stderr, "evaluations: %d configurations compiled (config cache %v)\n",
		res.Evaluations, res.ConfigCache)
	fmt.Fprintf(os.Stderr, "search pruning: %v\n", res.Prune)
	fmt.Fprintf(os.Stderr, "function cache: %v\n", res.FuncCache)
	if p.cacheDir != "" {
		if err := p.fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "inlinesearch:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "fn content cache: %v\n", p.fncache.Stats())
	return nil
}

func fileTUs(files []string) []link.TU {
	tus := make([]link.TU, 0, len(files))
	for _, path := range files {
		path := path
		tus = append(tus, link.LazyTU(path, func() (*ir.Module, error) {
			return source.Load(path)
		}))
	}
	return tus
}

// runRelink replays a -relink edit script: each patch step swaps one TU's
// contents, each search step reports the optimal search over the current
// unit set. Warm mode drives an incremental link.Session (dirty components
// re-solved, the rest replayed from the content-keyed result cache);
// -no-relink re-links and re-searches from scratch at every step — the
// differential oracle the ci.sh gate byte-diffs against. All stdout is
// mode-independent; patch/replay accounting goes to stderr.
func runRelink(p linkRun, dup link.DupPolicy) error {
	if p.noShard {
		return fmt.Errorf("-relink replay is always sharded; -no-shard applies to one-shot -link runs")
	}
	scriptData, err := os.ReadFile(p.relink)
	if err != nil {
		return fmt.Errorf("-relink: %w", err)
	}
	ops, err := link.ParseEditScript(scriptData)
	if err != nil {
		return fmt.Errorf("-relink %s: %w", p.relink, err)
	}
	scriptDir := filepath.Dir(p.relink)

	tus := fileTUs(p.files)
	var sess *link.Session
	cur := append([]link.TU(nil), tus...) // -no-relink: current contents
	if !p.noRelink {
		sess, err = link.NewSession(tus, link.SessionOptions{Link: link.Options{DupExported: dup}})
		if err != nil {
			return err
		}
	} else if _, err := link.New(cur, link.Options{DupExported: dup}); err != nil {
		return err
	}

	opts := p.searchOptions()
	for step, op := range ops {
		switch op.Verb {
		case "patch":
			path := op.Path
			if !filepath.IsAbs(path) {
				path = filepath.Join(scriptDir, path)
			}
			fmt.Printf("== step %d: patch %s <- %s ==\n", step+1, op.TU, op.Path)
			tu := link.LazyTU(op.TU, func() (*ir.Module, error) { return source.Load(path) })
			if p.noRelink {
				idx := -1
				for i := range cur {
					if cur[i].Name == op.TU {
						idx = i
						break
					}
				}
				if idx < 0 {
					return fmt.Errorf("step %d: link: no unit named %q", step+1, op.TU)
				}
				cur[idx] = tu
				if _, err := link.New(cur, link.Options{DupExported: dup}); err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
			} else {
				rep, err := sess.ReplaceNamed(tu)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
				if rep.PlanReused {
					fmt.Fprintf(os.Stderr, "step %d: body-only edit, plan reused\n", step+1)
				} else {
					fmt.Fprintf(os.Stderr, "step %d: link surface changed, plan rebuilt\n", step+1)
				}
			}
		case "search":
			fmt.Printf("== step %d: search ==\n", step+1)
			var (
				pl   *link.Plan
				res  link.SearchResult
				info link.RelinkInfo
				ok   bool
			)
			if p.noRelink {
				l, err := link.New(cur, link.Options{DupExported: dup})
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
				pl = l.Plan()
				res, ok, err = l.OptimalSearch(opts)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
			} else {
				pl = sess.Plan()
				res, info, ok, err = sess.Search(opts)
				if err != nil {
					return fmt.Errorf("step %d: %w", step+1, err)
				}
			}
			if !ok {
				return reportCapped(res, p.maxSpace)
			}
			printLinkPlanLine(pl)
			printLinkSearchReport(pl, res)
			if !p.noRelink {
				fmt.Fprintf(os.Stderr, "step %d: components solved %d, replayed %d; residual solved %d, replayed %d\n",
					step+1, info.ComponentsSolved, info.ComponentsReplayed, info.ResidualSolved, info.ResidualReplayed)
			}
		case "tune":
			return fmt.Errorf("step %d: tune steps replay with inlinetune -relink", step+1)
		}
	}
	if p.cacheDir != "" {
		if err := p.fncache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "inlinesearch:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "fn content cache: %v\n", p.fncache.Stats())
	return nil
}
