package compile

import (
	"sync"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/interp"
	"optinline/internal/ir"
)

const src = `
func @wrapper(%x) {
entry:
  %r = call @work(%x) !site 1
  ret %r
}

func @work(%x) {
entry:
  %two = const 2
  %a = mul %x, %two
  %b = add %a, %x
  ret %b
}

func @huge(%x) {
entry:
  %a1 = mul %x, %x
  %a2 = mul %a1, %x
  %a3 = mul %a2, %x
  %a4 = mul %a3, %x
  %a5 = add %a4, %a3
  %a6 = add %a5, %a2
  %a7 = add %a6, %a1
  %a8 = mul %a7, %x
  %a9 = add %a8, %a7
  %a10 = mul %a9, %a9
  ret %a10
}

export func @main(%n) {
entry:
  %a = call @wrapper(%n) !site 2
  %b = call @huge(%n) !site 3
  %c = call @huge(%a) !site 4
  %s = add %a, %b
  %t = add %s, %c
  output %t
  ret %t
}
`

func newCompiler(t *testing.T) *Compiler {
	t.Helper()
	m, err := ir.Parse("cmp", src)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, codegen.TargetX86)
}

func TestSizeIsDeterministic(t *testing.T) {
	c1, c2 := newCompiler(t), newCompiler(t)
	cfg := callgraph.NewConfig().Set(1, true).Set(3, true)
	if c1.Size(cfg) != c2.Size(cfg) {
		t.Fatal("size not deterministic across compilers")
	}
	if c1.Size(cfg) != c1.Size(cfg.Clone()) {
		t.Fatal("size not deterministic across equivalent configs")
	}
}

func TestSizeCaching(t *testing.T) {
	c := newCompiler(t)
	cfg := callgraph.NewConfig().Set(1, true)
	s1 := c.Size(cfg)
	evals := c.Evaluations()
	s2 := c.Size(cfg.Clone())
	if s1 != s2 {
		t.Fatal("cached size differs")
	}
	if c.Evaluations() != evals {
		t.Fatal("cache miss on identical config")
	}
	if c.CacheHits() == 0 {
		t.Fatal("hit counter not incremented")
	}
}

func TestInliningWrapperShrinks(t *testing.T) {
	c := newCompiler(t)
	clean := c.Size(callgraph.NewConfig())
	inlined := c.Size(callgraph.NewConfig().Set(2, true).Set(1, true))
	if inlined >= clean {
		t.Fatalf("inlining trivial wrappers should shrink: %d -> %d", clean, inlined)
	}
}

func TestInliningHugeCalleeGrows(t *testing.T) {
	c := newCompiler(t)
	clean := c.Size(callgraph.NewConfig())
	// Inlining only one of huge's two call sites duplicates the body
	// without removing the function.
	one := c.Size(callgraph.NewConfig().Set(3, true))
	if one <= clean {
		t.Fatalf("duplicating a huge callee should grow: %d -> %d", clean, one)
	}
}

func TestLabelBasedDFE(t *testing.T) {
	c := newCompiler(t)
	// All call sites into huge inlined: huge (internal) must be removed.
	cfg := callgraph.NewConfig().Set(3, true).Set(4, true)
	m, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("huge") != nil {
		t.Fatal("fully inlined internal callee not removed")
	}
	// One remaining no-inline edge keeps it alive.
	m, err = c.Build(callgraph.NewConfig().Set(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("huge") == nil {
		t.Fatal("callee with a surviving call site was removed")
	}
	// Exported functions are never removed.
	if m.Func("main") == nil {
		t.Fatal("exported function removed")
	}
}

func TestBuildPreservesSemantics(t *testing.T) {
	c := newCompiler(t)
	base, err := interp.Run(c.Module(), "main", []int64{5}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []*callgraph.Config{
		callgraph.NewConfig(),
		callgraph.NewConfig().Set(1, true).Set(2, true).Set(3, true).Set(4, true),
		callgraph.NewConfig().Set(2, true),
	} {
		m, err := c.Build(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		got, err := interp.Run(m, "main", []int64{5}, interp.Options{})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got.Observable() != base.Observable() {
			t.Fatalf("%v changed behaviour", cfg)
		}
	}
}

func TestConcurrentSizeIsSafe(t *testing.T) {
	c := newCompiler(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := callgraph.NewConfig()
				for s := 1; s <= 4; s++ {
					if (seed+i)&s != 0 {
						cfg.Set(s, true)
					}
				}
				c.Size(cfg)
			}
		}(w)
	}
	wg.Wait()
}

func TestNewAssignsSitesAndIsDefensive(t *testing.T) {
	m := ir.NewModule("fresh")
	b := ir.NewFunction("callee", 1, false)
	b.Ret(b.Param(0))
	m.AddFunc(b.Fn)
	mb := ir.NewFunction("main", 1, true)
	r := mb.Call("callee", mb.Param(0))
	mb.Ret(r)
	m.AddFunc(mb.Fn)
	// No sites assigned yet; New must handle it.
	c := New(m, codegen.TargetX86)
	if len(c.Graph().Edges) != 1 {
		t.Fatalf("edges=%d", len(c.Graph().Edges))
	}
	// The original module must be untouched (still unassigned).
	if m.MaxSite() != 0 {
		t.Fatal("New mutated the caller's module")
	}
}

func TestIndependenceOfComponents(t *testing.T) {
	// Two disjoint call chains in one module: the size delta of toggling
	// an edge in one chain must not depend on labels in the other. This is
	// the exactness property of the recursively partitioned search.
	twoComp := `
func @a1(%x) {
entry:
  %c = const 3
  %r = mul %x, %c
  ret %r
}
func @a0(%x) {
entry:
  %r = call @a1(%x) !site 1
  ret %r
}
func @b1(%x) {
entry:
  %c = const 9
  %r = add %x, %c
  ret %r
}
func @b0(%x) {
entry:
  %r = call @b1(%x) !site 2
  ret %r
}
export func @mainA(%x) {
entry:
  %r = call @a0(%x) !site 3
  ret %r
}
export func @mainB(%x) {
entry:
  %r = call @b0(%x) !site 4
  ret %r
}
`
	m, err := ir.Parse("ind", twoComp)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, codegen.TargetX86)
	// Delta of toggling site 3 must be identical across all labelings of
	// the B component.
	for _, s1 := range []bool{false, true} {
		var ref *int
		for maskB := 0; maskB < 4; maskB++ {
			base := callgraph.NewConfig()
			if maskB&1 != 0 {
				base.Set(2, true)
			}
			if maskB&2 != 0 {
				base.Set(4, true)
			}
			if s1 {
				base.Set(1, true)
			}
			d := c.Size(base.Clone().Set(3, true)) - c.Size(base)
			if ref == nil {
				ref = &d
			} else if *ref != d {
				t.Fatalf("component independence violated: delta %d vs %d", *ref, d)
			}
		}
	}
}
