package autotune

import (
	"fmt"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/workload"
)

// TestTunerEntryPointsFullTraceParity: every entry point that can express
// the plain size tuner must reproduce Tune's whole result — each round
// trace field, best and final configurations and sizes, the initial size
// and the evaluation counter — from both starting points and at one and
// eight workers. The weighted session at lambda = 0 is compared with its
// cycle fields excluded, since only it prices cycles.
func TestTunerEntryPointsFullTraceParity(t *testing.T) {
	p := workload.Profile{
		Name: "parity", Files: 6, TotalEdges: 70,
		ConstArgProb: 0.4, HubProb: 0.3, BigBodyProb: 0.25, LoopProb: 0.3,
		RecProb: 0.1, BranchProb: 0.5,
	}
	weighted := 0
	for _, f := range workload.Generate(p).Files {
		probe := compile.New(f.Module, codegen.TargetX86)
		if len(probe.Graph().Edges) == 0 {
			continue
		}
		osCfg := heuristic.OsConfig(probe.Module(), probe.Graph())
		for _, workers := range []int{1, 8} {
			for _, init := range []*callgraph.Config{nil, osCfg} {
				opts := Options{Rounds: 4, Workers: workers}
				name := fmt.Sprintf("%s/w%d/os=%v", f.Name, workers, init != nil)
				want := Tune(compile.New(f.Module, codegen.TargetX86), init, opts)

				sameResult(t, name+"/extended", want,
					TuneExtended(compile.New(f.Module, codegen.TargetX86), init, ExtOptions{Options: opts}), true)
				sameResult(t, name+"/session", want, stepSession(compile.New(f.Module, codegen.TargetX86), init, opts), true)
				oc := compile.New(f.Module, codegen.TargetX86)
				sameResult(t, name+"/objective", want, TuneObjective(oc.Graph(), func(cfg *callgraph.Config) int64 {
					return int64(oc.Size(cfg))
				}, init, opts), true)
				if wc, pricer := cyclePricerFor(t, f.Module); pricer != nil {
					weighted++
					sameResult(t, name+"/weighted", want, TuneWeighted(wc, pricer, 0, init, opts), false)
				}
			}
		}
	}
	if weighted == 0 {
		t.Fatal("no unit of the corpus could be profiled for the weighted pair")
	}
}

// stepSession tunes like Tune by stepping a Session, keeping the best and
// last configurations itself.
func stepSession(c *compile.Compiler, init *callgraph.Config, opts Options) Result {
	s := NewSession(c, init, opts.Workers)
	res := Result{Config: s.Config().Clone(), Size: s.Size(), InitSize: s.Size()}
	for r := 0; r < opts.Rounds && !s.Converged(); r++ {
		tr := s.Step()
		res.Rounds = append(res.Rounds, tr)
		if tr.Size < res.Size {
			res.Config, res.Size = s.Config().Clone(), tr.Size
		}
	}
	res.Final, res.FinalSize = s.Config(), s.Size()
	res.Evaluations = c.Evaluations()
	return res
}

// cyclePricerFor builds a compiler and cycle pricer for m, or a nil pricer
// when m's entry cannot be profiled.
func cyclePricerFor(t *testing.T, m *ir.Module) (*compile.Compiler, *compile.CyclePricer) {
	t.Helper()
	c := compile.New(m, codegen.TargetX86)
	built, err := c.Build(callgraph.NewConfig())
	if err != nil {
		return nil, nil
	}
	_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{Fuel: 5_000_000})
	if err != nil {
		return nil, nil
	}
	pricer, err := c.NewCyclePricer(prof, compile.CycleOptions{CacheBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	return c, pricer
}

func sameResult(t *testing.T, name string, want, got Result, cycles bool) {
	t.Helper()
	if !cycles {
		got.Cycles, got.InitCycles, got.FinalCycles = 0, 0, 0
		for i := range got.Rounds {
			got.Rounds[i].Cycles = 0
		}
	}
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%s: %d rounds, want %d", name, len(got.Rounds), len(want.Rounds))
	}
	for i := range want.Rounds {
		if got.Rounds[i] != want.Rounds[i] {
			t.Fatalf("%s round %d: %+v, want %+v", name, i+1, got.Rounds[i], want.Rounds[i])
		}
	}
	if !got.Config.Equal(want.Config) || !got.Final.Equal(want.Final) {
		t.Fatalf("%s: config %v final %v, want %v final %v", name, got.Config, got.Final, want.Config, want.Final)
	}
	type sizes struct {
		Size, InitSize, FinalSize int
		Cycles, InitCycles        int64
		FinalCycles, Evaluations  int64
	}
	g := sizes{got.Size, got.InitSize, got.FinalSize, got.Cycles, got.InitCycles, got.FinalCycles, got.Evaluations}
	w := sizes{want.Size, want.InitSize, want.FinalSize, want.Cycles, want.InitCycles, want.FinalCycles, want.Evaluations}
	if g != w {
		t.Fatalf("%s: %+v, want %+v", name, g, w)
	}
}
