package link

import (
	"reflect"
	"testing"

	"optinline/internal/autotune"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/search"
	"optinline/internal/workload"
)

func linkedS(t *testing.T) *Linker {
	t.Helper()
	lp, ok := workload.LinkedProfileByName("linked-s")
	if !ok {
		t.Fatal("linked-s profile missing")
	}
	l, err := New(CorpusTUs(workload.GenerateLinked(lp)), Options{Summaries: NewSummaryCache()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// tinyLinker builds a linker over a test-only profile sized so a full
// exhaustive (SetPrune(false)) search stays cheap even under the race detector,
// while keeping everything the differentials need: colliding file-local
// names, cross-TU calls, several non-trivial components, and component
// clusters big enough for the pruning engine's bound to matter.
func tinyLinker(t *testing.T) *Linker {
	t.Helper()
	lp := workload.LinkedProfile{
		Name:       "linked-tiny",
		TUs:        4,
		EdgesPerTU: 5,
		Cluster:    2,
		ExtCalls:   2,
		Shape: workload.Profile{
			ConstArgProb: 0.3,
			HubProb:      0.05,
			BigBodyProb:  0.1,
			LoopProb:     0.15,
			RecProb:      0.05,
			BranchProb:   0.3,
		},
	}
	l, err := New(CorpusTUs(workload.GenerateLinked(lp)), Options{Summaries: NewSummaryCache()})
	if err != nil {
		t.Fatal(err)
	}
	p := l.Plan()
	if len(p.Components) < 2 || p.CrossTU == 0 || p.Renamed == 0 {
		t.Fatalf("tiny profile degenerated: %d components, %d cross-TU, %d renamed",
			len(p.Components), p.CrossTU, p.Renamed)
	}
	return l
}

// TestOptimalSearchShardedMatchesNoShard is the tentpole oracle: the
// component-sharded search and the single-compiler -no-shard search must
// agree on everything mode-independent — sizes, configuration bits and
// canonical key, and per-component stats.
func TestOptimalSearchShardedMatchesNoShard(t *testing.T) {
	l := tinyLinker(t)
	fc := compile.NewFnCache()
	base := SearchOptions{ShardOptions: ShardOptions{
		Target:  codegen.TargetX86,
		Compile: compile.Options{FnCache: fc},
		Workers: 2,
	}}

	sharded, ok, err := l.OptimalSearch(base)
	if err != nil || !ok {
		t.Fatalf("sharded search: ok=%v err=%v", ok, err)
	}
	noShard := base
	noShard.NoShard = true
	oracle, ok, err := l.OptimalSearch(noShard)
	if err != nil || !ok {
		t.Fatalf("no-shard search: ok=%v err=%v", ok, err)
	}

	if sharded.Size != oracle.Size {
		t.Errorf("optimal size: sharded %d, no-shard %d", sharded.Size, oracle.Size)
	}
	if sharded.NoInlineSize != oracle.NoInlineSize {
		t.Errorf("no-inline size: sharded %d, no-shard %d", sharded.NoInlineSize, oracle.NoInlineSize)
	}
	if !sharded.Config.Equal(oracle.Config) {
		t.Errorf("configurations differ")
	}
	if sharded.Config.Key() != oracle.Config.Key() {
		t.Errorf("config keys differ:\n  sharded:  %s\n  no-shard: %s", sharded.Config.Key(), oracle.Config.Key())
	}
	if !reflect.DeepEqual(sharded.Components, oracle.Components) {
		t.Errorf("per-component stats differ:\n  sharded:  %+v\n  no-shard: %+v", sharded.Components, oracle.Components)
	}
	if sharded.SpaceTotal != oracle.SpaceTotal {
		t.Errorf("space totals differ: %d vs %d", sharded.SpaceTotal, oracle.SpaceTotal)
	}

	// Ground truth: a plain whole-module search over the merged module.
	merged, err := l.Link()
	if err != nil {
		t.Fatal(err)
	}
	c := compile.NewWithOptions(merged, codegen.TargetX86, compile.Options{FnCache: fc})
	direct, ok := search.Optimal(c, search.Options{Workers: 2})
	if !ok {
		t.Fatal("direct search aborted")
	}
	if direct.Size != sharded.Size {
		t.Errorf("direct whole-module optimum %d, sharded %d", direct.Size, sharded.Size)
	}
	if direct.Config.Key() != sharded.Config.Key() {
		t.Errorf("direct config key differs from sharded")
	}
}

// TestOptimalSearchShardedMatchesNoShardLinkedS repeats the three-way
// oracle at full linked-s scale (456k-evaluation total space — the size
// class where the compacted-graph pruning bug actually showed). Too slow
// under the race detector; the tiny-profile test covers those builds.
func TestOptimalSearchShardedMatchesNoShardLinkedS(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("full linked-s differential is slow; covered by the tiny-profile oracle here")
	}
	l := linkedS(t)
	fc := compile.NewFnCache()
	base := SearchOptions{ShardOptions: ShardOptions{
		Target:  codegen.TargetX86,
		Compile: compile.Options{FnCache: fc},
		Workers: 2,
	}}
	sharded, ok, err := l.OptimalSearch(base)
	if err != nil || !ok {
		t.Fatalf("sharded search: ok=%v err=%v", ok, err)
	}
	noShard := base
	noShard.NoShard = true
	oracle, ok, err := l.OptimalSearch(noShard)
	if err != nil || !ok {
		t.Fatalf("no-shard search: ok=%v err=%v", ok, err)
	}
	if sharded.Size != oracle.Size || sharded.Config.Key() != oracle.Config.Key() {
		t.Errorf("linked-s: sharded %d vs no-shard %d diverged", sharded.Size, oracle.Size)
	}
	merged, err := l.Link()
	if err != nil {
		t.Fatal(err)
	}
	c := compile.NewWithOptions(merged, codegen.TargetX86, compile.Options{FnCache: fc})
	direct, ok := search.Optimal(c, search.Options{Workers: 2})
	if !ok {
		t.Fatal("direct search aborted")
	}
	if direct.Size != sharded.Size || direct.Config.Key() != sharded.Config.Key() {
		t.Errorf("direct whole-module optimum %d, sharded %d", direct.Size, sharded.Size)
	}
}

func noPrune(c *compile.Compiler) { c.SetPrune(false) }

// TestOptimalSearchWorkerParity: results must be bit-identical across
// worker counts in both modes, including with pruning disabled.
func TestOptimalSearchWorkerParity(t *testing.T) {
	l := tinyLinker(t)
	var refKey string
	var refSize int
	for i, opt := range []SearchOptions{
		{ShardOptions: ShardOptions{Target: codegen.TargetX86, Workers: -1}},
		{ShardOptions: ShardOptions{Target: codegen.TargetX86, Workers: 4}},
		{ShardOptions: ShardOptions{Target: codegen.TargetX86, Workers: 1, NoShard: true}},
		// The exhaustive (SetPrune(false)) merged variant doubles as the
		// oracle that caught a pruning-engine/compacted-graph index
		// mismatch; the sharded exhaustive path is already covered by the
		// search package's own differential tests.
		{ShardOptions: ShardOptions{Target: codegen.TargetX86, Workers: 8, NoShard: true, Configure: noPrune}},
	} {
		res, ok, err := l.OptimalSearch(opt)
		if err != nil || !ok {
			t.Fatalf("variant %d: ok=%v err=%v", i, ok, err)
		}
		if i == 0 {
			refKey, refSize = res.Config.Key(), res.Size
			continue
		}
		if res.Config.Key() != refKey || res.Size != refSize {
			t.Errorf("variant %d diverged: size %d (ref %d)", i, res.Size, refSize)
		}
	}
}

func TestOptimalSearchMaxSpaceAbortsIdentically(t *testing.T) {
	l := tinyLinker(t)
	for _, noShard := range []bool{false, true} {
		res, ok, err := l.OptimalSearch(SearchOptions{
			ShardOptions: ShardOptions{Target: codegen.TargetX86, NoShard: noShard},
			MaxSpace:     2, // every component exceeds this
		})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("noShard=%v: expected space-cap abort", noShard)
		}
		if res.Config != nil {
			t.Fatalf("noShard=%v: aborted search returned a config", noShard)
		}
		capped := false
		for _, cs := range res.Components {
			capped = capped || cs.Capped
		}
		if !capped {
			t.Fatalf("noShard=%v: no component marked capped", noShard)
		}
	}
}

// TestTuneShardedMatchesNoShard: lockstep per-component tuning must
// reproduce the whole-module autotuner run for run — every round trace,
// the best and final configurations, and all sizes.
func TestTuneShardedMatchesNoShard(t *testing.T) {
	l := linkedS(t)
	for _, init := range []TuneInit{InitClean, InitOs} {
		base := TuneOptions{
			ShardOptions: ShardOptions{Target: codegen.TargetX86, Workers: 2},
			Rounds:       6,
			Init:         init,
		}
		sharded, err := l.Tune(base)
		if err != nil {
			t.Fatal(err)
		}
		noShard := base
		noShard.NoShard = true
		oracle, err := l.Tune(noShard)
		if err != nil {
			t.Fatal(err)
		}

		a, b := sharded.Result, oracle.Result
		if a.InitSize != b.InitSize {
			t.Errorf("init %d: InitSize %d vs %d", init, a.InitSize, b.InitSize)
		}
		if a.Size != b.Size || a.Config.Key() != b.Config.Key() {
			t.Errorf("init %d: best size/config differ (%d vs %d)", init, a.Size, b.Size)
		}
		if a.FinalSize != b.FinalSize || a.Final.Key() != b.Final.Key() {
			t.Errorf("init %d: final size/config differ (%d vs %d)", init, a.FinalSize, b.FinalSize)
		}
		if !reflect.DeepEqual(a.Rounds, b.Rounds) {
			t.Errorf("init %d: round traces differ:\n  sharded:  %+v\n  no-shard: %+v", init, a.Rounds, b.Rounds)
		}
		if !reflect.DeepEqual(sharded.Components, oracle.Components) {
			t.Errorf("init %d: per-component stats differ", init)
		}
	}
}

// TestTuneSessionMatchesTune pins the new incremental Session to the
// classic Tune loop on the same compiler.
func TestTuneSessionMatchesTune(t *testing.T) {
	l := linkedS(t)
	mod, err := l.Component(0)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 5
	c1 := compile.New(mod, codegen.TargetX86)
	want := make([]int, 0, rounds)
	ref := autotune.Tune(c1, nil, autotune.Options{Rounds: rounds, Workers: 2})
	c2 := compile.New(mod, codegen.TargetX86)
	sess := autotune.NewSession(c2, nil, 2)
	for r := 0; r < rounds; r++ {
		tr := sess.Step()
		want = append(want, tr.Size)
		if r < len(ref.Rounds) {
			if tr.Size != ref.Rounds[r].Size || tr.Toggles != ref.Rounds[r].Toggles {
				t.Fatalf("round %d: session (size %d, toggles %d) vs Tune (%d, %d)",
					r+1, tr.Size, tr.Toggles, ref.Rounds[r].Size, ref.Rounds[r].Toggles)
			}
		}
		if sess.Converged() {
			break
		}
	}
	if sess.Size() != ref.FinalSize {
		t.Fatalf("session final %d, Tune final %d (sizes seen %v)", sess.Size(), ref.FinalSize, want)
	}
	if !sess.Config().Equal(ref.Final) {
		t.Fatal("session final config differs from Tune")
	}
}

// TestShardedSearchSharesFnCache: per-component compilers and the merged
// no-shard compiler must hit the same content-addressed entries.
func TestShardedSearchSharesFnCache(t *testing.T) {
	l := tinyLinker(t)
	fc := compile.NewFnCache()
	opts := SearchOptions{ShardOptions: ShardOptions{
		Target:  codegen.TargetX86,
		Compile: compile.Options{FnCache: fc},
		Workers: 1,
	}}
	if _, ok, err := l.OptimalSearch(opts); err != nil || !ok {
		t.Fatalf("sharded: ok=%v err=%v", ok, err)
	}
	cold := fc.Stats()
	if cold.Misses == 0 {
		t.Fatal("sharded run never touched the shared fn cache")
	}
	opts.NoShard = true
	if _, ok, err := l.OptimalSearch(opts); err != nil || !ok {
		t.Fatalf("no-shard: ok=%v err=%v", ok, err)
	}
	warm := fc.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("no-shard rerun missed %d new entries; content keys should be module-independent",
			warm.Misses-cold.Misses)
	}
}
