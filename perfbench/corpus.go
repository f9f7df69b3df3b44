package main

import (
	"fmt"
	"math/rand"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
	"optinline/internal/source"
	"optinline/internal/workload"
)

// The seed reaches the generators only through profile names:
// workload.Generate and workload.GenerateLinked derive every random choice
// from the profile name, so renaming a profile yields a different corpus of
// the same shape. The default seed's first variant keeps the plain names,
// which is the corpus the experiments and CLIs use.
func seededName(name string, seed int64, variant int) string {
	if seed == defaultSeed && variant == 0 {
		return name
	}
	return fmt.Sprintf("%s@s%dv%d", name, seed, variant)
}

// unit is one generated translation unit as the program receives it:
// rendered IR text under a ".ir" name.
type unit struct {
	name  string
	text  []byte
	edges int
}

func renderUnit(f workload.File) unit {
	return unit{
		name:  f.Name + ".ir",
		text:  []byte(f.Module.String()),
		edges: len(callgraph.Build(f.Module).Edges),
	}
}

func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// specUnits generates one variant of the SPEC-shaped corpus (the profiles
// keep all their shape knobs; scale shrinks file and edge counts alike)
// and returns its units with candidate call sites. keep, when non-nil,
// selects profiles by their plain name.
func specUnits(seed int64, variant int, scale float64, keep func(string) bool) []unit {
	var out []unit
	for _, p := range workload.SPECProfiles() {
		if keep != nil && !keep(p.Name) {
			continue
		}
		p.Name = seededName(p.Name, seed, variant)
		p.Files = scaleInt(p.Files, scale)
		p.TotalEdges = scaleInt(p.TotalEdges, scale)
		for _, f := range workload.Generate(p).Files {
			if u := renderUnit(f); u.edges > 0 {
				out = append(out, u)
			}
		}
	}
	return out
}

// shuffled returns xs in a seeded random order, so any prefix of a timed
// phase is a fair sample of them.
func shuffled[T any](xs []T, seed int64, variant int) []T {
	out := append([]T(nil), xs...)
	rng := rand.New(rand.NewSource(seed*1009 + int64(variant)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// parse is every op's first step: the program receives only IR text.
func parse(o *opTrace, u unit) (*ir.Module, error) {
	var (
		m   *ir.Module
		err error
	)
	o.do("source.from_bytes", func() { m, err = source.FromBytes(u.name, u.text) })
	return m, err
}

// newCompiler builds m's compiler on the shared function cache fc.
func newCompiler(o *opTrace, m *ir.Module, fc *compile.FnCache) *compile.Compiler {
	var c *compile.Compiler
	o.do("compile.new", func() {
		c = compile.NewWithOptions(m, codegen.TargetX86, compile.Options{FnCache: fc})
	})
	return c
}
