// Command inlinebench regenerates the paper's tables and figures against
// the synthetic corpus (see DESIGN.md for the experiment index).
//
// Usage:
//
//	inlinebench [flags]
//
//	-exp id       experiment to run: fig1..fig19, tab1..tab4,
//	              llvm-case, sqlite-case, linked-case, or "all"
//	              (default all); linked-scale is extra-heavy and only
//	              runs when named explicitly
//	-no-shard     linked-module experiments: solve components on one merged
//	              compiler instead of per-component shards (differential
//	              oracle — stdout is byte-identical)
//	-list         list experiment IDs and exit
//	-scale F      workload scale, 1.0 = full corpus (default 1.0)
//	-rounds N     autotuning rounds (default 4)
//	-cap N        recursive-space cap for exhaustive experiments (default 2^14)
//	-jobs N       parallelism: files, subtrees, and experiment cases
//	              (default and 0: GOMAXPROCS; -jobs 1 forces a sequential
//	              run)
//	-check        checked compilation: verify IR invariants after every
//	              inline step and opt pass of every evaluation (slow); the
//	              fast paths are off, so every evaluation runs the
//	              whole-module pipeline
//	-no-delta     disable the incremental delta-evaluation engines: every
//	              probe prices a whole configuration, in bytes and (the
//	              pareto experiment) in cycles (differential oracle)
//	-no-prune     disable the branch-and-bound layer of the optimal search;
//	              exhaustive experiments run the plain recursion instead
//	              (differential oracle — stdout is byte-identical)
//	-no-fncache   disable the per-function compile cache: every closure is
//	              compiled afresh (differential oracle)
//	-cache-dir d  persist the content cache in directory d: entries from a
//	              previous run are reused, and this run's are saved back
//	-cpuprofile f write a CPU profile to f
//	-memprofile f write a heap profile to f at exit
//
// Results are bit-identical for every -jobs value, for -no-delta,
// -no-prune, -no-fncache, -no-shard and -check, and for warm -cache-dir
// reruns; the run ends with compile-cache statistics and total wall-clock
// time on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"optinline/internal/cli"
	"optinline/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inlinebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		eng      = cli.NewEngine(flag.CommandLine, "inlinebench")
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs")
		scale    = flag.Float64("scale", 1.0, "workload scale")
		rounds   = flag.Int("rounds", 4, "autotuning rounds")
		spaceCap = flag.Uint64("cap", 1<<14, "recursive-space cap for exhaustive experiments")
		jobs     = cli.Jobs(flag.CommandLine)
		noShard  = flag.Bool("no-shard", false, "linked-module experiments: one merged compiler instead of per-component shards (differential oracle)")
		check    = flag.Bool("check", false, "checked compilation: verify IR invariants after every inline step and opt pass (slow)")
	)
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	start := time.Now()
	stop, err := eng.Start()
	if err != nil {
		return err
	}
	defer stop()
	h := experiments.NewHarness(experiments.Config{
		Scale:         *scale,
		Workers:       *jobs,
		ExhaustiveCap: *spaceCap,
		Rounds:        *rounds,
		Configure:     eng.Configure,
		Checked:       *check,
		FnCache:       eng.FnCache(),
		DisableShard:  *noShard,
	})
	fmt.Fprintf(os.Stderr, "corpus generated in %v\n", time.Since(start).Round(time.Millisecond))

	var results []experiments.Result
	if *exp == "all" {
		results = h.RunAll()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, err := h.Run(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	}
	for _, r := range results {
		fmt.Printf("\n================================================================\n")
		fmt.Printf("%s — %s\n", r.ID, r.Title)
		fmt.Printf("================================================================\n\n")
		fmt.Println(r.Text)
	}
	fmt.Fprintf(os.Stderr, "config cache:    %v\n", h.ConfigCacheStats())
	fmt.Fprintf(os.Stderr, "function cache:  %v\n", h.FuncCacheStats())
	eng.Finish()
	fmt.Fprintf(os.Stderr, "delta engine:    %v\n", h.DeltaStats())
	fmt.Fprintf(os.Stderr, "search pruning:  %v\n", h.PruneStats())
	fmt.Fprintf(os.Stderr, "cycle pricer:    %v\n", h.CycleStats())
	fmt.Fprintf(os.Stderr, "total time %v\n", time.Since(start).Round(time.Millisecond))
	if *check {
		if fails := h.CheckFailures(); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "check:", f)
			}
			return fmt.Errorf("checked mode: %d file(s) hit invariant violations", len(fails))
		}
		fmt.Fprintln(os.Stderr, "checked mode: no invariant violations")
	}
	return nil
}
