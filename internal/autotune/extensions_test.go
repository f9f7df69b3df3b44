package autotune

import (
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/search"
	"optinline/internal/workload"
)

func TestExtendedEqualsBaseWhenDisabled(t *testing.T) {
	c1, c2 := newCompiler(t), newCompiler(t)
	a := Tune(c1, nil, Options{Rounds: 3})
	b := TuneExtended(c2, nil, ExtOptions{Options: Options{Rounds: 3}})
	if a.Size != b.Size || !a.Config.Equal(b.Config) {
		t.Fatalf("extended tuner with no extensions diverged: %d vs %d", a.Size, b.Size)
	}
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("round traces differ: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
}

func TestGroupTogglesFindGroupDCE(t *testing.T) {
	// The shared test module's @big needs both its call sites inlined to
	// pay off (the callee then dies). Plain clean-slate tuning cannot find
	// it; group toggles must.
	c := newCompiler(t)
	plain := CleanSlate(c, Options{Rounds: 4})
	cg := newCompiler(t)
	grouped := TuneExtended(cg, nil, ExtOptions{Options: Options{Rounds: 4}, GroupCallees: true})
	if grouped.Size >= plain.Size {
		t.Fatalf("group toggles found nothing: plain %d, grouped %d", plain.Size, grouped.Size)
	}
	if !grouped.Config.Inline(2) || !grouped.Config.Inline(3) {
		t.Fatalf("group win not applied: %v", grouped.Config)
	}
	// And it must match the certified optimum here.
	opt, ok := search.Optimal(newCompiler(t), search.Options{})
	if !ok {
		t.Fatal("search aborted")
	}
	if grouped.Size != opt.Size {
		t.Fatalf("grouped tuner %d != optimum %d", grouped.Size, opt.Size)
	}
}

func TestGroupTogglesRespectExportedCallees(t *testing.T) {
	src := `
export func shared(%x) {
entry:
  %a = mul %x, %x
  %b = add %a, %x
  %c = mul %b, %a
  ret %c
}
export func u1(%x) {
entry:
  %r = call @shared(%x) !site 1
  ret %r
}
export func u2(%x) {
entry:
  %r = call @shared(%x) !site 2
  ret %r
}
`
	m := ir.MustParse("exp", src)
	c := compile.New(m, codegen.TargetX86)
	res := TuneExtended(c, nil, ExtOptions{Options: Options{Rounds: 2}, GroupCallees: true})
	// Inlining both sites duplicates the body without deleting the exported
	// callee; the group candidate must not be (wrongly) considered a win.
	if got := c.Size(res.Config); got > res.InitSize {
		t.Fatalf("tuning regressed: %d > %d", got, res.InitSize)
	}
}

func TestIncrementalNeverWorseThanInit(t *testing.T) {
	c := newCompiler(t)
	res := TuneExtended(c, nil, ExtOptions{Options: Options{Rounds: 4}, Incremental: true})
	if res.Size > res.InitSize {
		t.Fatalf("incremental tuning regressed: %d > %d", res.Size, res.InitSize)
	}
	if got := c.Size(res.Config); got != res.Size {
		t.Fatal("reported size inconsistent")
	}
}

func TestIncrementalUsesFewerEvaluationsOnCorpus(t *testing.T) {
	p := workload.Profile{
		Name: "incr", Files: 1, TotalEdges: 60,
		ConstArgProb: 0.35, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.3,
		RecProb: 0.05, BranchProb: 0.45, MultiRootPct: 0.12,
	}
	f := workload.Generate(p).Files[0]

	full := compile.New(f.Module, codegen.TargetX86)
	rFull := TuneExtended(full, nil, ExtOptions{Options: Options{Rounds: 4}})

	inc := compile.New(f.Module, codegen.TargetX86)
	rInc := TuneExtended(inc, nil, ExtOptions{Options: Options{Rounds: 4}, Incremental: true})

	if rInc.Size > rFull.InitSize {
		t.Fatalf("incremental regressed vs init: %d > %d", rInc.Size, rFull.InitSize)
	}
	if len(rFull.Rounds) > 1 && inc.Evaluations() >= full.Evaluations() {
		t.Fatalf("incremental did not save evaluations: %d vs %d",
			inc.Evaluations(), full.Evaluations())
	}
	// Quality must stay close: within 5% of the full tuner.
	if float64(rInc.Size) > 1.05*float64(rFull.Size) {
		t.Fatalf("incremental quality degraded: %d vs %d", rInc.Size, rFull.Size)
	}
}

func TestGroupTogglesOnGeneratedHubs(t *testing.T) {
	// Hub-heavy corpora are where group toggles can matter; the extended
	// tuner must never do worse than the plain one.
	p := workload.Profile{
		Name: "hubs", Files: 4, TotalEdges: 50,
		ConstArgProb: 0.3, HubProb: 0.5, BigBodyProb: 0.2, LoopProb: 0.3,
		RecProb: 0, BranchProb: 0.4, MultiRootPct: 0.1,
	}
	var plainTotal, extTotal int
	for _, f := range workload.Generate(p).Files {
		cPlain := compile.New(f.Module, codegen.TargetX86)
		plain := CleanSlate(cPlain, Options{Rounds: 2})
		cExt := compile.New(f.Module, codegen.TargetX86)
		ext := TuneExtended(cExt, nil, ExtOptions{Options: Options{Rounds: 2}, GroupCallees: true})
		// Per file, group toggles can interact with single toggles within a
		// round (the same non-additivity the paper observes across rounds,
		// Table 4), so allow small per-file regressions...
		if float64(ext.Size) > 1.05*float64(plain.Size) {
			t.Fatalf("%s: grouped %d much worse than plain %d", f.Name, ext.Size, plain.Size)
		}
		plainTotal += plain.Size
		extTotal += ext.Size
	}
	// ...but overall the extension must not lose.
	if extTotal > plainTotal {
		t.Fatalf("grouped total %d worse than plain total %d", extTotal, plainTotal)
	}
}

func TestExactComponentPolishReachesOptimum(t *testing.T) {
	// On modules whose every component fits the polish cap, the polished
	// tuner must land exactly on the certified optimum: the polish re-solves
	// each component under the tuned rest, and component optima compose
	// (the paper's independence theorem).
	p := workload.Profile{
		Name: "polish", Files: 4, TotalEdges: 40,
		ConstArgProb: 0.35, HubProb: 0.3, BigBodyProb: 0.25, LoopProb: 0.3,
		RecProb: 0.05, BranchProb: 0.45, MultiRootPct: 0.25,
	}
	checked := 0
	for _, f := range workload.Generate(p).Files {
		probe := compile.New(f.Module, codegen.TargetX86)
		if len(probe.Graph().Edges) == 0 {
			continue
		}
		if _, capped := search.RecursiveSpaceSize(probe.Graph(), 1<<12); capped {
			continue
		}
		opt, ok := search.Optimal(compile.New(f.Module, codegen.TargetX86), search.Options{MaxSpace: 1 << 12})
		if !ok {
			continue
		}
		checked++
		cp := compile.New(f.Module, codegen.TargetX86)
		res := TuneExtended(cp, nil, ExtOptions{
			Options: Options{Rounds: 2}, ExactComponents: 1 << 12,
		})
		if res.Size != opt.Size {
			t.Fatalf("%s: polished tuner %d != optimum %d", f.Name, res.Size, opt.Size)
		}
		if got := cp.Size(res.Config); got != res.Size {
			t.Fatalf("%s: polished config prices to %d, reported %d", f.Name, got, res.Size)
		}
		// The -no-prune oracle must agree bit for bit.
		cn := compile.New(f.Module, codegen.TargetX86)
		cn.SetPrune(false)
		resN := TuneExtended(cn, nil, ExtOptions{
			Options: Options{Rounds: 2}, ExactComponents: 1 << 12,
		})
		if resN.Size != res.Size || !resN.Config.Equal(res.Config) {
			t.Fatalf("%s: polish with -no-prune diverged: %d vs %d", f.Name, resN.Size, res.Size)
		}
	}
	if checked == 0 {
		t.Fatal("no file in the polish corpus was fully searchable")
	}
}

func TestExactComponentPolishMonotone(t *testing.T) {
	// On a larger unit where only some components fit the cap, the polish
	// must never regress the tuned result.
	p := workload.Profile{
		Name: "polish-mono", Files: 1, TotalEdges: 60,
		ConstArgProb: 0.35, HubProb: 0.25, BigBodyProb: 0.25, LoopProb: 0.3,
		RecProb: 0.05, BranchProb: 0.45, MultiRootPct: 0.15,
	}
	f := workload.Generate(p).Files[0]
	plain := TuneExtended(compile.New(f.Module, codegen.TargetX86), nil,
		ExtOptions{Options: Options{Rounds: 2}})
	cp := compile.New(f.Module, codegen.TargetX86)
	polished := TuneExtended(cp, nil,
		ExtOptions{Options: Options{Rounds: 2}, ExactComponents: 1 << 10})
	if polished.Size > plain.Size {
		t.Fatalf("polish regressed: %d > %d", polished.Size, plain.Size)
	}
	if got := cp.Size(polished.Config); got != polished.Size {
		t.Fatalf("polished config prices to %d, reported %d", got, polished.Size)
	}
}

func TestExtendedWithInit(t *testing.T) {
	c := newCompiler(t)
	init := callgraph.NewConfig().Set(1, true)
	res := TuneExtended(c, init, ExtOptions{
		Options: Options{Rounds: 3}, GroupCallees: true, Incremental: true,
	})
	if res.InitSize != c.Size(init) {
		t.Fatal("init size wrong")
	}
	if res.Size > res.InitSize {
		t.Fatal("regressed")
	}
}
