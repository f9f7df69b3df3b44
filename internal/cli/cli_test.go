package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/interp"
	"optinline/internal/lang"
	"optinline/internal/link"
)

const demoSrc = `
func sq(x) { return x * x; }
func add3(a, b, c) { return a + b + c; }
export func entry(n) { return add3(sq(n), sq(n + 1), sq(n + 2)); }
`

// newEngine parses argv into a fresh engine flag set.
func newEngine(t *testing.T, argv ...string) (*Engine, *Link, *codegen.Target) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e, l, target := NewEngine(fs, "test"), NewLink(fs), Target(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	return e, l, target
}

func TestConfigureDisablesOracleLayers(t *testing.T) {
	mod, err := lang.Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		argv                       []string
		delta, prune, fncache, cyc bool
	}{
		{nil, true, true, true, true},
		{[]string{"-no-delta"}, false, true, true, false},
		{[]string{"-no-prune"}, true, false, true, true},
		{[]string{"-no-fncache"}, true, true, false, true},
		{[]string{"-no-delta", "-no-prune", "-no-fncache"}, false, false, false, false},
	} {
		e, _, target := newEngine(t, tc.argv...)
		stop, err := e.Start()
		if err != nil {
			t.Fatal(err)
		}
		direct := e.NewCompiler(mod, *target, false)
		shard := compile.New(mod, *target)
		e.Shard(*target, false, 1).Configure(shard)
		for name, c := range map[string]*compile.Compiler{"NewCompiler": direct, "Shard.Configure": shard} {
			if c.DeltaEnabled() != tc.delta || c.PruneActive() != tc.prune || c.FnCacheEnabled() != tc.fncache {
				t.Errorf("%v %s: delta %v prune %v fncache %v, want %v %v %v", tc.argv, name,
					c.DeltaEnabled(), c.PruneActive(), c.FnCacheEnabled(), tc.delta, tc.prune, tc.fncache)
			}
			if got := newPricer(t, c).DeltaEnabled(); got != tc.cyc {
				t.Errorf("%v %s: cycle pricer delta %v, want %v", tc.argv, name, got, tc.cyc)
			}
		}
		if direct.FnCache() != e.FnCache() {
			t.Errorf("%v: direct compiler does not share the run's fn-cache store", tc.argv)
		}
		stop()
	}
}

// newPricer profiles c's no-inline build from entry(7) and prices it.
func newPricer(t *testing.T, c *compile.Compiler) *compile.CyclePricer {
	t.Helper()
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.NewCyclePricer(prof, compile.CycleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTargetFlag(t *testing.T) {
	if _, _, target := newEngine(t, "-target", "wasm"); *target != codegen.TargetWASM {
		t.Fatalf("-target wasm parsed as %v", *target)
	}
	if _, _, target := newEngine(t); *target != codegen.TargetX86 {
		t.Fatalf("default target %v, want x86", *target)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Target(fs)
	if err := fs.Parse([]string{"-target", "arm"}); err == nil || !strings.Contains(err.Error(), `unknown target "arm"`) {
		t.Fatalf("-target arm: got %v, want an unknown-target error", err)
	}
}

func TestProfilesAndCacheDirWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, cache := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "cache")
	e, _, target := newEngine(t, "-cpuprofile", cpu, "-memprofile", mem, "-cache-dir", cache)
	stop, err := e.Start()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lang.Compile("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := e.NewCompiler(mod, *target, false)
	all := callgraph.NewConfig()
	for _, edge := range c.Graph().Edges {
		all.Set(edge.Site, true)
	}
	c.Size(all)
	e.Finish()
	stop()
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", path, err)
		}
	}
	reopened, err := compile.OpenFnCache(cache)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() == 0 {
		t.Fatal("Finish did not save the fn-cache store to -cache-dir")
	}
}

// chdirRepoRoot moves the test to the repository root for its duration:
// the edit scripts name units by repository-relative path.
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// stepResult is everything a replay step's printer could print.
type stepResult struct {
	Step, Edges, Components int
	Size                    int
	Config                  string
	Rounds                  []int
}

// replaySteps replays script over the linked example units and records
// every query step's result.
func replaySteps(t *testing.T, script, verb string, cold bool) []stepResult {
	t.Helper()
	lk := &Link{Dup: "rename", Relink: script, NoRelink: cold}
	files := []string{"examples/minc/linked/app.minc", "examples/minc/linked/mathlib.minc"}
	shard := link.ShardOptions{Target: codegen.TargetX86, Workers: 1}
	var out []stepResult
	err := lk.Replay(files, verb, func(st *Step) error {
		if verb == "search" {
			res, ok, err := st.Search(link.SearchOptions{ShardOptions: shard})
			if err != nil || !ok {
				t.Fatalf("step %d: search ok=%v err=%v", st.N, ok, err)
			}
			out = append(out, stepResult{st.N, len(st.Plan.Edges), len(res.Components),
				res.Size, res.Config.Key(), nil})
			return nil
		}
		for _, init := range []link.TuneInit{link.InitClean, link.InitOs} {
			tr, err := st.Tune(link.TuneOptions{ShardOptions: shard, Rounds: 3, Init: init})
			if err != nil {
				return err
			}
			r := stepResult{st.N, len(st.Plan.Edges), len(tr.Components),
				tr.Result.Size, tr.Result.Config.Key(), nil}
			for _, round := range tr.Result.Rounds {
				r.Rounds = append(r.Rounds, round.Size)
			}
			out = append(out, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayWarmMatchesCold: the incremental session and the cold
// link-per-step oracle give equal per-step results over the shipped edit
// scripts.
func TestReplayWarmMatchesCold(t *testing.T) {
	chdirRepoRoot(t)
	for _, tc := range []struct{ script, verb string }{
		{"examples/minc/linked/edits.txt", "search"},
		{"examples/minc/linked/edits_tune.txt", "tune"},
	} {
		warm := replaySteps(t, tc.script, tc.verb, false)
		cold := replaySteps(t, tc.script, tc.verb, true)
		if len(warm) < 3 {
			t.Fatalf("%s: only %d query results", tc.script, len(warm))
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("%s: warm and cold replays differ:\nwarm %+v\ncold %+v", tc.script, warm, cold)
		}
	}
}

func TestReplayRejectsOtherQueryVerb(t *testing.T) {
	chdirRepoRoot(t)
	lk := &Link{Dup: "rename", Relink: "examples/minc/linked/edits.txt"}
	err := lk.Replay([]string{"examples/minc/linked/app.minc", "examples/minc/linked/mathlib.minc"}, "tune",
		func(*Step) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "inlinesearch -relink") {
		t.Fatalf("tune replay of a search script: got %v", err)
	}
}
