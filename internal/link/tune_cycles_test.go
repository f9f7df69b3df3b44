package link

import (
	"reflect"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
)

// cycleTuneOpts is the shared session shape for the cycle-objective tests:
// tu000_main is the profiled root of the tiny linked corpus.
func cycleTuneOpts() TuneOptions {
	return TuneOptions{
		ShardOptions: ShardOptions{Target: codegen.TargetX86, Workers: 2},
		Rounds:       4,
		Objective:    ObjectiveWeighted,
		Lambda:       0.1,
		Entry:        "tu000_main",
		Args:         []int64{7},
		Fuel:         20_000_000,
		CacheBytes:   512,
	}
}

// TestTuneCycleObjectiveIgnoresShardMode: cycle objectives always run on the
// merged module (the i-cache couples components), so -no-shard must change
// nothing at all.
func TestTuneCycleObjectiveIgnoresShardMode(t *testing.T) {
	sharded, err := tinyLinker(t).Tune(cycleTuneOpts())
	if err != nil {
		t.Fatal(err)
	}
	noShard := cycleTuneOpts()
	noShard.NoShard = true
	merged, err := tinyLinker(t).Tune(noShard)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sharded.Result, merged.Result
	if a.Size != b.Size || a.Cycles != b.Cycles || a.Config.Key() != b.Config.Key() {
		t.Fatalf("shard modes diverged: (%d,%d) vs (%d,%d)", a.Size, a.Cycles, b.Size, b.Cycles)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Fatalf("round traces differ:\n  %+v\n  %+v", a.Rounds, b.Rounds)
	}
}

// TestTuneCycleObjectiveDeltaOracle: the linked weighted session must be
// byte-identical with the compiler's delta engines (size and cycles) on and
// off.
func TestTuneCycleObjectiveDeltaOracle(t *testing.T) {
	delta, err := tinyLinker(t).Tune(cycleTuneOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := cycleTuneOpts()
	opts.Configure = func(c *compile.Compiler) { c.SetDelta(false) }
	full, err := tinyLinker(t).Tune(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := delta.Result, full.Result
	if a.Size != b.Size || a.Cycles != b.Cycles || a.Config.Key() != b.Config.Key() {
		t.Fatalf("delta vs oracle diverged: (%d,%d) vs (%d,%d)", a.Size, a.Cycles, b.Size, b.Cycles)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Fatalf("round traces differ:\n  %+v\n  %+v", a.Rounds, b.Rounds)
	}
	if delta.Cycle.Repricings == 0 {
		t.Fatalf("incremental path never engaged: %+v", delta.Cycle)
	}
	if full.Cycle.Repricings != 0 || full.Cycle.FullEvals == 0 {
		t.Fatalf("oracle priced incrementally: %+v", full.Cycle)
	}
	if a.Cycles <= 0 {
		t.Fatalf("no cycles recorded: %+v", a)
	}
}
