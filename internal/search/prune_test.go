package search

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/graph"
	"optinline/internal/lang"
)

// --- differential fuzz: pruned vs exhaustive vs brute force ----------------

// TestPrunedSearchDifferentialFuzz is the tentpole's oracle: on MinC
// programs from the generator, the branch-and-bound search must return the
// exact optimum the exhaustive recursion returns — same size AND same
// configuration key — while doing no more counted evaluations. Small graphs
// are additionally certified against brute force.
func TestPrunedSearchDifferentialFuzz(t *testing.T) {
	// Big enough that most generated programs are searchable, small enough
	// that the exhaustive oracle side stays affordable under -race.
	const maxSpace = 1 << 12
	// Walk seeds until 30 generated programs have actually been searched
	// (graphs that are empty or blow the space cap do not count).
	checked := 0
	for seed := int64(1); seed <= 200 && checked < 30; seed++ {
		name := fmt.Sprintf("prunefuzz%03d", seed)
		src := lang.GenerateSource(seed, lang.GenOptions{})
		mod, err := lang.Compile(name, src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not lower: %v\n%s", seed, err, src)
		}
		probe := compile.New(mod, codegen.TargetX86)
		if len(probe.Graph().Edges) == 0 {
			continue
		}

		cp := compile.New(mod, codegen.TargetX86)
		rp, okP := Optimal(cp, Options{MaxSpace: maxSpace})
		cn := compile.New(mod, codegen.TargetX86)
		cn.SetPrune(false)
		rn, okN := Optimal(cn, Options{MaxSpace: maxSpace})
		if okP != okN {
			t.Fatalf("seed %d: MaxSpace disagreement pruned=%v exhaustive=%v", seed, okP, okN)
		}
		if !okP {
			continue
		}
		checked++
		if rp.Size != rn.Size {
			t.Fatalf("seed %d: pruned optimum %d != exhaustive optimum %d\n%s",
				seed, rp.Size, rn.Size, src)
		}
		if rp.Config.Key() != rn.Config.Key() {
			t.Fatalf("seed %d: pruned config {%s} != exhaustive config {%s}",
				seed, rp.Config.Key(), rn.Config.Key())
		}
		if rp.Evaluations > rn.Evaluations {
			t.Fatalf("seed %d: pruned search evaluated more than exhaustive: %d > %d",
				seed, rp.Evaluations, rn.Evaluations)
		}
		if !rp.Prune.Enabled || rn.Prune.Enabled {
			t.Fatalf("seed %d: prune stats gating wrong: pruned=%+v exhaustive=%+v",
				seed, rp.Prune, rn.Prune)
		}
		if e := len(probe.Graph().Edges); e <= 12 {
			cb := compile.New(mod, codegen.TargetX86)
			bestCfg, bestSize := NaiveOptimal(cb)
			if rp.Size != bestSize {
				t.Fatalf("seed %d: pruned optimum %d != brute-force optimum %d (E=%d)",
					seed, rp.Size, bestSize, e)
			}
			// Brute force enumerates in a different order, so only the size
			// is canonical; still, the returned configs must price equally.
			if got := cb.Size(rp.Config); got != bestSize {
				t.Fatalf("seed %d: pruned config prices to %d, brute force found %d",
					seed, got, bestSize)
			}
			_ = bestCfg
		}
	}
	if checked < 30 {
		t.Fatalf("fuzz corpus too small: only %d programs searched", checked)
	}
}

// TestPrunedSearchSavesWork pins that the layer actually prunes on a shape
// where sharing is guaranteed: long chains revisit identical component
// subproblems along both branches.
func TestPrunedSearchSavesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	saved := false
	for trial := 0; trial < 20; trial++ {
		m := randomModule(rng)
		probe := compile.New(m, codegen.TargetX86)
		if e := len(probe.Graph().Edges); e < 5 || e > 12 {
			continue
		}
		cp := compile.New(m, codegen.TargetX86)
		rp, _ := Optimal(cp, Options{})
		cn := compile.New(m, codegen.TargetX86)
		cn.SetPrune(false)
		rn, _ := Optimal(cn, Options{})
		if rp.Size != rn.Size || rp.Config.Key() != rn.Config.Key() {
			t.Fatalf("trial %d: pruned (%d,{%s}) != exhaustive (%d,{%s})",
				trial, rp.Size, rp.Config.Key(), rn.Size, rn.Config.Key())
		}
		if rp.Evaluations < rn.Evaluations {
			saved = true
		}
	}
	if !saved {
		t.Fatal("pruned search never beat the exhaustive evaluation count")
	}
}

// --- edgeComponents: parallel edges, self-loops, split invariants ----------

func edgeIDSet(mg *graph.Multigraph) []int { return mg.EdgeIDs() }

func TestEdgeComponentsParallelEdges(t *testing.T) {
	// Two parallel edges between 0-1 plus an unrelated component 2-3.
	mg := &graph.Multigraph{N: 4, Edges: []graph.Edge{
		{ID: 1, U: 0, V: 1},
		{ID: 2, U: 1, V: 0}, // parallel, opposite stored orientation
		{ID: 3, U: 2, V: 3},
	}}
	subs := edgeComponents(mg)
	if len(subs) != 2 {
		t.Fatalf("got %d components, want 2", len(subs))
	}
	got0, got1 := edgeIDSet(subs[0]), edgeIDSet(subs[1])
	if fmt.Sprint(got0) != "[1 2]" || fmt.Sprint(got1) != "[3]" {
		t.Fatalf("component edge IDs = %v / %v, want [1 2] / [3]", got0, got1)
	}
}

func TestEdgeComponentsSelfLoops(t *testing.T) {
	// A self-loop is a one-node component with an edge; an isolated node
	// must not produce a component.
	mg := &graph.Multigraph{N: 3, Edges: []graph.Edge{
		{ID: 7, U: 1, V: 1},
		{ID: 9, U: 0, V: 2},
	}}
	subs := edgeComponents(mg)
	if len(subs) != 2 {
		t.Fatalf("got %d components, want 2", len(subs))
	}
	// Ordering is by smallest contained node: {0,2} before {1}.
	if fmt.Sprint(edgeIDSet(subs[0])) != "[9]" || fmt.Sprint(edgeIDSet(subs[1])) != "[7]" {
		t.Fatalf("component edge IDs = %v / %v, want [9] / [7]",
			edgeIDSet(subs[0]), edgeIDSet(subs[1]))
	}
	// A self-loop alone is a single edge-bearing component: no split.
	loop := &graph.Multigraph{N: 2, Edges: []graph.Edge{{ID: 3, U: 0, V: 0}}}
	if subs := edgeComponents(loop); len(subs) != 1 || subs[0] != loop {
		t.Fatalf("self-loop-only graph split unexpectedly: %v", subs)
	}
}

// randomMultigraph samples a multigraph with duplicate endpoints and
// self-loops allowed; edge IDs are distinct and dense from 1.
func randomMultigraph(rng *rand.Rand) *graph.Multigraph {
	n := 2 + rng.Intn(7)
	e := rng.Intn(12)
	mg := &graph.Multigraph{N: n}
	for i := 0; i < e; i++ {
		mg.Edges = append(mg.Edges, graph.Edge{ID: i + 1, U: rng.Intn(n), V: rng.Intn(n)})
	}
	return mg
}

// TestSearchSplitsPreserveEdges is the property test behind the space
// accounting: every split the search applies — the components partition,
// RemoveEdge, ContractEdge — preserves the multiset of surviving edge
// identities (site IDs), so no configuration is ever duplicated or lost.
func TestSearchSplitsPreserveEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	var walk func(mg *graph.Multigraph, depth int)
	walk = func(mg *graph.Multigraph, depth int) {
		if len(mg.Edges) == 0 || depth > 6 {
			return
		}
		parent := edgeIDSet(mg)
		if subs := edgeComponents(mg); len(subs) > 1 {
			var union []int
			for _, sub := range subs {
				union = append(union, edgeIDSet(sub)...)
			}
			sort.Ints(union)
			if fmt.Sprint(union) != fmt.Sprint(parent) {
				t.Fatalf("components partition lost edges: %v -> %v", parent, union)
			}
			for _, sub := range subs {
				walk(sub, depth+1)
			}
			return
		}
		e := SelectPartitionEdge(mg)
		removed, contracted := mg.RemoveEdge(e.ID), mg.ContractEdge(e.ID)
		want := make([]int, 0, len(parent)-1)
		for _, id := range parent {
			if id != e.ID {
				want = append(want, id)
			}
		}
		if fmt.Sprint(edgeIDSet(removed)) != fmt.Sprint(want) {
			t.Fatalf("RemoveEdge(%d): %v -> %v, want %v", e.ID, parent, edgeIDSet(removed), want)
		}
		if fmt.Sprint(edgeIDSet(contracted)) != fmt.Sprint(want) {
			t.Fatalf("ContractEdge(%d): %v -> %v, want %v", e.ID, parent, edgeIDSet(contracted), want)
		}
		// Contraction must never detach surviving edges from the merged
		// endpoint class: the contracted graph's node universe is unchanged.
		if contracted.N != mg.N {
			t.Fatalf("ContractEdge changed N: %d -> %d", mg.N, contracted.N)
		}
		walk(removed, depth+1)
		walk(contracted, depth+1)
	}
	for trial := 0; trial < 40; trial++ {
		walk(randomMultigraph(rng), 0)
	}
}

// TestPruneStatsString pins the stderr stats line format the CLIs print.
func TestPruneStatsString(t *testing.T) {
	if got := (PruneStats{}).String(); got != "disabled" {
		t.Fatalf("disabled stats = %q", got)
	}
	p := PruneStats{Enabled: true, Subtrees: 3, MemoHits: 4, MemoMisses: 5, BoundEvals: 6}
	want := "3 subtrees pruned, memo 4 hits / 5 misses, 6 bound evaluations"
	if got := p.String(); got != want {
		t.Fatalf("stats = %q, want %q", got, want)
	}
	sum := p.Add(PruneStats{Enabled: false, Subtrees: 1, MemoHits: 1, MemoMisses: 1, BoundEvals: 1})
	if !sum.Enabled || sum.Subtrees != 4 || sum.MemoHits != 5 || sum.MemoMisses != 6 || sum.BoundEvals != 7 {
		t.Fatalf("Add = %+v", sum)
	}
}
