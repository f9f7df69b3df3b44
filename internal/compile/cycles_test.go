package compile

import (
	"math/rand"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// profileFor builds the baseline (no-inline) module and interprets it once,
// returning nil for files whose dynamic call tree exceeds the fuel budget
// (they are skipped, like the Fig. 19 experiment skips them).
func profileFor(t testing.TB, c *Compiler) *interp.Profile {
	t.Helper()
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatalf("baseline build: %v", err)
	}
	_, p, err := interp.Collect(built, "entry", []int64{7}, interp.Options{Fuel: 5_000_000})
	if err != nil {
		return nil
	}
	return p
}

// cycleCorpus pairs generated files with baseline profiles.
func cycleCorpus(t testing.TB) []struct {
	file workload.File
	prof *interp.Profile
} {
	var out []struct {
		file workload.File
		prof *interp.Profile
	}
	for _, f := range memoCorpus(t) {
		c := New(f.Module, codegen.TargetX86)
		if p := profileFor(t, c); p != nil {
			out = append(out, struct {
				file workload.File
				prof *interp.Profile
			}{f, p})
		}
	}
	if len(out) < 3 {
		t.Fatalf("cycle corpus too trivial: %d interpretable files", len(out))
	}
	return out
}

// TestCyclesDeltaMatchesFull is the exactness theorem of the cycle engine:
// for arbitrary bases and toggle sets, the incremental price must equal the
// -no-delta whole-module evaluation of the same configuration.
func TestCyclesDeltaMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, fc := range cycleCorpus(t) {
		dc := New(fc.file.Module, codegen.TargetX86)
		fcomp := New(fc.file.Module, codegen.TargetX86)
		fcomp.SetDelta(false)
		delta, err := dc.NewCyclePricer(fc.prof, CycleOptions{CacheBytes: 512})
		if err != nil {
			t.Fatalf("%s: %v", fc.file.Name, err)
		}
		full, err := fcomp.NewCyclePricer(fc.prof, CycleOptions{CacheBytes: 512})
		if err != nil {
			t.Fatalf("%s: %v", fc.file.Name, err)
		}
		sites := dc.Graph().Sites()

		for trial := 0; trial < 3; trial++ {
			baseCfg := callgraph.NewConfig()
			if trial > 0 {
				for _, s := range sites {
					if rng.Intn(2) == 0 {
						baseCfg.Set(s, true)
					}
				}
			}
			base := delta.Priced(baseCfg)
			if got, want := base.Cycles(), full.Cycles(baseCfg); got != want {
				t.Fatalf("%s base %v: Priced %d != full %d", fc.file.Name, baseCfg, got, want)
			}
			for _, s := range sites {
				cfg := baseCfg.Clone().Set(s, !baseCfg.Inline(s))
				if got, want := delta.CyclesDelta(base, []int{s}), full.Cycles(cfg); got != want {
					t.Fatalf("%s base %v toggle %d: delta %d != full %d",
						fc.file.Name, baseCfg, s, got, want)
				}
			}
			var multi []int
			for _, s := range sites {
				if rng.Intn(3) == 0 {
					multi = append(multi, s)
				}
			}
			cfg := baseCfg.Clone()
			for _, s := range multi {
				cfg.Set(s, !baseCfg.Inline(s))
			}
			if got, want := delta.CyclesDelta(base, multi), full.Cycles(cfg); got != want {
				t.Fatalf("%s base %v toggles %v: delta %d != full %d",
					fc.file.Name, baseCfg, multi, got, want)
			}
		}
		if delta.Stats().Repricings == 0 {
			t.Fatalf("%s: incremental path never engaged", fc.file.Name)
		}
		if full.Stats().FullEvals == 0 || full.Stats().Repricings != 0 {
			t.Fatalf("%s: oracle stats %+v", fc.file.Name, full.Stats())
		}
	}
}

// TestCycleRebaseAdvancesHandle mirrors the size engine's Rebase contract.
func TestCycleRebaseAdvancesHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, fc := range cycleCorpus(t) {
		dc := New(fc.file.Module, codegen.TargetX86)
		fcomp := New(fc.file.Module, codegen.TargetX86)
		fcomp.SetDelta(false)
		delta, _ := dc.NewCyclePricer(fc.prof, CycleOptions{})
		full, _ := fcomp.NewCyclePricer(fc.prof, CycleOptions{})
		sites := dc.Graph().Sites()

		handle := delta.Priced(callgraph.NewConfig())
		cfg := callgraph.NewConfig()
		for step := 0; step < 4; step++ {
			var toggles []int
			for _, s := range sites {
				if rng.Intn(3) == 0 {
					toggles = append(toggles, s)
				}
			}
			for _, s := range toggles {
				cfg.Set(s, !cfg.Inline(s))
			}
			handle = delta.Rebase(handle, toggles)
			if got, want := handle.Cycles(), full.Cycles(cfg); got != want {
				t.Fatalf("%s step %d: rebased cycles %d != full %d", fc.file.Name, step, got, want)
			}
			if !handle.Config().Equal(cfg) {
				t.Fatalf("%s step %d: rebased config drifted", fc.file.Name, step)
			}
			s := sites[rng.Intn(len(sites))]
			probe := cfg.Clone().Set(s, !cfg.Inline(s))
			if got, want := delta.CyclesDelta(handle, []int{s}), full.Cycles(probe); got != want {
				t.Fatalf("%s step %d probe %d: delta %d != full %d", fc.file.Name, step, s, got, want)
			}
		}
	}
}

// TestCyclesParallelDeterminism: CyclesDeltaParallel must return identical
// prices for workers 1, 2, and 8 — the cycle analogue of the CLIs'
// bit-identical -jobs guarantee.
func TestCyclesParallelDeterminism(t *testing.T) {
	fc := cycleCorpus(t)[0]
	var want []int64
	for _, workers := range []int{1, 2, 8} {
		c := New(fc.file.Module, codegen.TargetX86)
		p, err := c.NewCyclePricer(fc.prof, CycleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sites := c.Graph().Sites()
		toggles := make([][]int, len(sites))
		for i, s := range sites {
			toggles[i] = []int{s}
		}
		base := p.Priced(callgraph.NewConfig())
		got := p.CyclesDeltaParallel(base, toggles, workers)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d toggle %d: %d != %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCyclePricerDisabledPaths: delta-off, memo-off and checked compilers
// must force the full Build path, transparently.
func TestCyclePricerDisabledPaths(t *testing.T) {
	fc := cycleCorpus(t)[0]
	ref := New(fc.file.Module, codegen.TargetX86)
	ref.SetDelta(false)
	oracle, _ := ref.NewCyclePricer(fc.prof, CycleOptions{})
	s := ref.Graph().Sites()[0]
	probe := callgraph.NewConfig().Set(s, true)
	want := oracle.Cycles(probe)

	deltaOff := New(fc.file.Module, codegen.TargetX86)
	deltaOff.SetDelta(false)
	memoOff := New(fc.file.Module, codegen.TargetX86)
	memoOff.SetMemoize(false)
	checked := NewWithOptions(fc.file.Module, codegen.TargetX86, Options{Check: true})
	for name, c := range map[string]*Compiler{"delta-off": deltaOff, "memo-off": memoOff, "checked": checked} {
		p, err := c.NewCyclePricer(fc.prof, CycleOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.DeltaEnabled() {
			t.Fatalf("%s: DeltaEnabled() = true", name)
		}
		base := p.Priced(callgraph.NewConfig())
		if got := p.CyclesDelta(base, []int{s}); got != want {
			t.Fatalf("%s: fallback price %d != oracle %d", name, got, want)
		}
		if p.Stats().Repricings != 0 {
			t.Fatalf("%s: priced incrementally despite disabled engine", name)
		}
	}
}

// TestCycleModelExactOnStraightLine: on branch-free programs the "static
// body cost × profiled entries" model is not an approximation — the pricer
// must reproduce the interpreter's cycle count exactly, for every
// configuration, including call/arg overheads, external calls, and the LRU
// i-cache penalty. This pins the whole bookkeeping chain end to end.
func TestCycleModelExactOnStraightLine(t *testing.T) {
	src := `
global @acc

func @leaf(%x) {
entry:
  %two = const 2
  %m = mul %x, %two
  %e = call @external_helper(%m)
  ret %e
}

func @mid(%a) {
entry:
  %l = call @leaf(%a)
  %one = const 1
  %s = add %l, %one
  storeg @acc, %s
  ret %s
}

func @side(%a) {
entry:
  %g = loadg @acc
  %v = add %g, %a
  output %v
  ret %v
}

export func @entry(%n) {
entry:
  %a = call @mid(%n)
  %b = call @leaf(%a)
  %c2 = call @side(%b)
  %r = add %a, %c2
  ret %r
}
`
	m := ir.MustParse("straight", src)
	c := New(m, codegen.TargetX86)
	const cacheBytes = 48 // small enough that inlining changes miss behaviour
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pricer, err := c.NewCyclePricer(prof, CycleOptions{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	sites := c.Graph().Sites()
	if len(sites) < 3 {
		t.Fatalf("expected at least 3 candidate sites, got %v", sites)
	}
	// Exhaust every configuration over the candidate sites.
	for mask := 0; mask < 1<<len(sites); mask++ {
		cfg := callgraph.NewConfig()
		for i, s := range sites {
			if mask&(1<<i) != 0 {
				cfg.Set(s, true)
			}
		}
		bm, err := c.Build(cfg)
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		res, err := interp.Run(bm, "entry", []int64{7}, interp.Options{
			SizeOf:     codegen.SizeOf(bm, codegen.TargetX86),
			CacheBytes: cacheBytes,
		})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		if got := pricer.Cycles(cfg); got != res.Cycles {
			t.Fatalf("mask %b: pricer %d != interpreter %d", mask, got, res.Cycles)
		}
	}
}

// TestCyclePricerRejectsForeignProfile: a profile from a different module
// must be refused, not silently mispriced.
func TestCyclePricerRejectsForeignProfile(t *testing.T) {
	corpus := cycleCorpus(t)
	a := New(corpus[0].file.Module, codegen.TargetX86)
	if _, err := a.NewCyclePricer(corpus[1].prof, CycleOptions{}); err == nil {
		// Different generated files can coincidentally share function names;
		// only fail the test when the profile names a missing function.
		names := map[string]bool{}
		for _, f := range a.Module().Funcs {
			names[f.Name] = true
		}
		for _, n := range corpus[1].prof.Funcs {
			if !names[n] {
				t.Fatalf("profile names %q, missing from module, but pricer accepted it", n)
			}
		}
	}
}
