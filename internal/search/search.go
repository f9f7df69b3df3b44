// Package search implements the paper's inlining search-space formulation
// and exhaustive optimal-inlining search (Sections 3 and 4).
//
// The naive space of a call graph with E candidate edges has 2^E inlining
// configurations. The recursively partitioned space exploits two facts:
// connected components are independent w.r.t. inlining, and a non-inlined
// bridge makes its two sides independent. The search is organized as an
// inlining tree (Algorithm 2): binary nodes assign {inline, no-inline} to a
// partition edge (contracting or deleting it in the graph), components
// nodes split independent components, and leaves are fully labeled
// configurations. Evaluation (Algorithm 1) propagates the best
// configuration from the leaves to the root; leaf and combine evaluations
// compile the module and measure its size.
//
// The tree is never materialized: construction and evaluation are fused
// into one lazy recursion, and space-size accounting (#leaves +
// #components-nodes) runs the same recursion without compiling.
package search

import (
	"math"
	"math/big"
	"runtime"
	"sort"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/graph"
)

// NaiveSpaceLog2 returns log2 of the naive space size: the number of
// candidate edges.
func NaiveSpaceLog2(g *callgraph.Graph) float64 {
	return float64(len(g.Edges))
}

// NaiveSpaceSize returns the exact naive space size 2^E.
func NaiveSpaceSize(g *callgraph.Graph) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(len(g.Edges)))
}

// ComponentSpaceSize returns the space size when only connected components
// are exploited: sum over components of 2^|E_c| (Section 3.1).
func ComponentSpaceSize(g *callgraph.Graph) *big.Int {
	mg := g.Undirected()
	comps := mg.ConnectedComponents()
	inComp := make([]int, mg.N)
	for ci, nodes := range comps {
		for _, n := range nodes {
			inComp[n] = ci
		}
	}
	edgeCount := make([]int, len(comps))
	for _, e := range mg.Edges {
		edgeCount[inComp[e.U]]++
	}
	total := new(big.Int)
	for _, ec := range edgeCount {
		if ec == 0 {
			continue
		}
		total.Add(total, new(big.Int).Lsh(big.NewInt(1), uint(ec)))
	}
	return total
}

// RecursiveSpaceSize counts the recursively partitioned space: the number
// of inlining-tree leaves plus components nodes. Counting stops early once
// the count exceeds limit (0 means no limit); the second result reports
// whether the limit was hit (the returned count is then a lower bound >
// limit).
func RecursiveSpaceSize(g *callgraph.Graph, limit uint64) (uint64, bool) {
	mg := g.Undirected()
	return countSpace(mg, limit)
}

// RecursiveSpaceLog2 is a convenience: log2 of the (possibly capped) count.
func RecursiveSpaceLog2(g *callgraph.Graph, limit uint64) (float64, bool) {
	n, capped := RecursiveSpaceSize(g, limit)
	if n == 0 {
		return 0, capped
	}
	return math.Log2(float64(n)), capped
}

// SubspaceSize is RecursiveSpaceSize for one subgraph (typically a
// component from ComponentSubgraphs): the number of tree evaluations an
// OptimalCompletion over it costs.
func SubspaceSize(mg *graph.Multigraph, limit uint64) (uint64, bool) {
	return countSpace(mg, limit)
}

func countSpace(mg *graph.Multigraph, limit uint64) (uint64, bool) {
	if len(mg.Edges) == 0 {
		return 1, false
	}
	subs := edgeComponents(mg)
	if len(subs) > 1 {
		total := uint64(1) // the combining evaluation of the components node
		for _, sub := range subs {
			n, capped := countSpace(sub, limit)
			total += n
			if capped || (limit > 0 && total > limit) {
				return total, true
			}
		}
		return total, false
	}
	e := SelectPartitionEdge(mg)
	n1, c1 := countSpace(mg.RemoveEdge(e.ID), limit)
	if c1 || (limit > 0 && n1 > limit) {
		return n1, true
	}
	n2, c2 := countSpace(mg.ContractEdge(e.ID), limit)
	total := n1 + n2
	return total, c2 || (limit > 0 && total > limit)
}

// edgeComponents splits the multigraph into one subgraph per connected
// component that contains at least one edge. Node numbering is preserved.
func edgeComponents(mg *graph.Multigraph) []*graph.Multigraph {
	comps := mg.ConnectedComponents()
	inComp := make([]int, mg.N)
	for ci, nodes := range comps {
		for _, n := range nodes {
			inComp[n] = ci
		}
	}
	byComp := make(map[int][]graph.Edge)
	for _, e := range mg.Edges {
		ci := inComp[e.U]
		byComp[ci] = append(byComp[ci], e)
	}
	if len(byComp) <= 1 {
		// Zero or one edge-bearing component: no split.
		if len(byComp) == 0 {
			return nil
		}
		return []*graph.Multigraph{mg}
	}
	cis := make([]int, 0, len(byComp))
	for ci := range byComp {
		cis = append(cis, ci)
	}
	sort.Ints(cis)
	subs := make([]*graph.Multigraph, 0, len(cis))
	for _, ci := range cis {
		subs = append(subs, &graph.Multigraph{N: mg.N, Edges: byComp[ci]})
	}
	return subs
}

// SelectPartitionEdge implements the paper's partition-edge heuristic
// (Algorithm 2, SelectPartitionEdge):
//
//   - If bridges exist, pick the bridge adjacent to the least eccentric
//     vertex among bridge-adjacent vertices (prioritizing central bridges).
//   - Otherwise, take the node with the highest out-degree and among its
//     outgoing edges pick the one whose head has the least in-degree.
//
// Ties break toward lower node index / lower edge ID for determinism.
// Edge direction is taken from the stored (U=tail, V=head) orientation.
func SelectPartitionEdge(mg *graph.Multigraph) graph.Edge {
	if len(mg.Edges) == 0 {
		panic("search: SelectPartitionEdge on empty graph")
	}
	bridges := mg.Bridges()
	if len(bridges) > 0 {
		ecc := mg.Eccentricities()
		best := bridges[0]
		bestEcc := minEcc(ecc, best)
		for _, b := range bridges[1:] {
			be := minEcc(ecc, b)
			if be < bestEcc || (be == bestEcc && b.ID < best.ID) {
				best, bestEcc = b, be
			}
		}
		return best
	}
	out := make([]int, mg.N)
	in := make([]int, mg.N)
	for _, e := range mg.Edges {
		out[e.U]++
		in[e.V]++
	}
	u := -1
	for n := 0; n < mg.N; n++ {
		if u == -1 || out[n] > out[u] {
			u = n
		}
	}
	var best *graph.Edge
	for i := range mg.Edges {
		e := &mg.Edges[i]
		if e.U != u {
			continue
		}
		if best == nil || in[e.V] < in[best.V] || (in[e.V] == in[best.V] && e.ID < best.ID) {
			best = e
		}
	}
	if best == nil {
		// Unreachable: u maximizes out-degree and the graph has edges, so
		// out[u] >= 1 and the loop above found at least one candidate. A
		// silent fallback here (an arbitrary edge) would desynchronize the
		// evaluated tree from countSpace's accounting, so fail loudly.
		panic("search: SelectPartitionEdge: max-out-degree node has no outgoing edge")
	}
	return *best
}

func minEcc(ecc []int, e graph.Edge) int {
	a, b := ecc[e.U], ecc[e.V]
	if b < a {
		return b
	}
	return a
}

// Result is the outcome of an optimal search.
type Result struct {
	Config      *callgraph.Config // an optimal configuration
	Size        int               // its .text size
	SpaceSize   uint64            // evaluations in the full recursive space
	Evaluations int64             // actual (uncached) compilations
	Prune       PruneStats        // branch-and-bound layer counters
}

// Options configures Optimal.
type Options struct {
	// Workers bounds the worker pool for concurrent subtree evaluations:
	// 0 selects GOMAXPROCS, negative forces the sequential recursion, and
	// any positive value is used as given. Results are bit-identical across
	// worker counts: sibling subtrees are merged in deterministic order,
	// the compile caches and the component memo are single-flight, and
	// pruning decisions are functions of the subproblem rather than of the
	// schedule, so even evaluation counters do not depend on scheduling.
	Workers int
	// MaxSpace aborts the search (returns ok=false) if the recursive space
	// exceeds this many evaluations. 0 means no bound. The bound is on the
	// full tree: pruning changes how much of it is visited, not its size.
	MaxSpace uint64
}

// Optimal searches the recursively partitioned space and returns an optimal
// configuration for the compiler's module and target. ok is false when
// MaxSpace is exceeded. The search is exact; by default a branch-and-bound
// layer (see prune.go) skips subtrees that provably cannot improve on a
// sibling and memoizes repeated component subproblems. The layer runs while
// c.PruneActive(): c.SetPrune(false) forces the exhaustive recursion (the
// -no-prune differential oracle; results are byte-identical, only the
// amount of work differs), and memo-off or checked compilers, which cannot
// price the bounds, never prune.
func Optimal(c *compile.Compiler, opts Options) (Result, bool) {
	g := c.Graph()
	space, capped := RecursiveSpaceSize(g, opts.MaxSpace)
	if opts.MaxSpace > 0 && (capped || space > opts.MaxSpace) {
		return Result{SpaceSize: space}, false
	}
	ev := newEvaluator(c, opts)
	cfg, size := ev.eval(g.Undirected(), callgraph.NewConfig(), ev.root)
	return Result{
		Config:      cfg,
		Size:        size,
		SpaceSize:   space,
		Evaluations: c.Evaluations(),
		Prune:       ev.pruneStats(),
	}, true
}

// OptimalCompletion searches the recursive space of one subgraph (typically
// a component from ComponentSubgraphs) with every label outside it fixed by
// decided, and returns the best full configuration and its whole-module
// size. The autotuner's exact-component polish is built on it: component
// optima are independent of labels outside the component (the paper's
// independence theorem), so re-solving one component under a tuned context
// yields the true component optimum given the rest.
func OptimalCompletion(c *compile.Compiler, mg *graph.Multigraph, decided *callgraph.Config, opts Options) (*callgraph.Config, int) {
	ev := newEvaluator(c, opts)
	root := ev.root
	if root != nil {
		// Rebase the pruning handle onto the caller's decided prefix; the
		// clean-slate handle only anchors searches from the root.
		root = c.RebaseContrib(root, decided.InlineSites())
		if !root.HasContrib() {
			root = nil
		}
	}
	return ev.eval(mg, decided.Clone(), root)
}

// ComponentSubgraphs returns the edge-bearing connected components of the
// candidate graph's undirected view, ready for OptimalCompletion.
func ComponentSubgraphs(g *callgraph.Graph) []*graph.Multigraph {
	mg := g.Undirected()
	if len(mg.Edges) == 0 {
		return nil
	}
	return edgeComponents(mg)
}

type evaluator struct {
	c      *compile.Compiler
	base   *compile.Sized // clean-slate handle; nil disables delta pricing
	tokens chan struct{}  // nil means sequential
	eng    *engine        // branch-and-bound state; nil disables pruning
	root   *compile.Sized // clean-slate contribution handle for pruning
}

// newEvaluator wires the delta pricing base and, unless disabled, the
// branch-and-bound engine.
func newEvaluator(c *compile.Compiler, opts Options) *evaluator {
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Every leaf and combine evaluation is a perturbation of the clean
	// slate confined to one component, so price them as deltas against a
	// clean-slate handle: only the functions reachable into the labeled
	// component recompile, never the whole module. DeltaBase is nil when
	// the engine is off (-no-delta, checked mode); sizeOf then takes the
	// classic whole-configuration path. Both paths are byte-identical,
	// including evaluation counters — the handle itself is built outside
	// the config cache, so the clean slate is still "evaluated" at the
	// first leaf that requests it, exactly as before.
	ev := &evaluator{c: c, base: c.DeltaBase(callgraph.NewConfig())}
	if workers > 1 {
		ev.tokens = make(chan struct{}, workers)
	}
	if c.PruneActive() {
		// The pruning handle is deliberately independent of the delta flag:
		// it only needs the per-function memo, so -no-delta runs prune (and
		// count evaluations) exactly like delta runs. ev.base can be non-nil
		// with pruning off (SetPrune(false)), so the gate is explicit.
		root := ev.base
		if root == nil {
			root = c.ContribBase(callgraph.NewConfig())
		}
		if root.HasContrib() {
			ev.eng = newEngine(c.Graph())
			ev.root = root
		}
	}
	return ev
}

func (ev *evaluator) pruneStats() PruneStats {
	if ev.eng == nil {
		return PruneStats{}
	}
	return ev.eng.stats()
}

// sizeOf prices a fully-merged (partial) configuration: incrementally
// against the clean-slate handle when the delta engine is on, otherwise
// through the classic whole-configuration path.
func (ev *evaluator) sizeOf(cfg *callgraph.Config) int {
	if ev.base != nil {
		return ev.c.SizeDelta(ev.base, cfg.InlineSites())
	}
	return ev.c.Size(cfg)
}

// eval is Algorithm 1 fused with Algorithm 2: it lazily builds and
// evaluates the inlining tree rooted at the given graph state.
// decided holds the labels assigned on the path from the root; h is the
// contribution handle pricing decided (nil when pruning is off or the
// prefix stopped compiling, in which case the subtree runs exhaustively).
func (ev *evaluator) eval(mg *graph.Multigraph, decided *callgraph.Config, h *compile.Sized) (*callgraph.Config, int) {
	if len(mg.Edges) == 0 {
		// InliningTreeLeaf: a fully labeled (partial w.r.t. siblings)
		// configuration; evaluate it.
		cfg := decided.Clone()
		return cfg, ev.sizeOf(cfg)
	}
	if subs := edgeComponents(mg); len(subs) > 1 {
		// InliningTreeComponentsNode: independent components explored
		// independently, then combined with one extra evaluation. The
		// decided prefix — and with it the handle — is the same in every
		// child.
		combined := decided.Clone()
		results := make([]*callgraph.Config, len(subs))
		ev.parallelEach(len(subs), func(i int) {
			sub, _ := ev.eval(subs[i], decided, h)
			results[i] = sub
		})
		for _, sub := range results {
			combined.Merge(sub)
		}
		return combined, ev.sizeOf(combined)
	}
	if ev.eng != nil && h.HasContrib() {
		// Single component with a priced prefix: memoized branch-and-bound.
		return ev.evalComponent(mg, decided, h)
	}
	// InliningTreeBinaryNode: label the partition edge both ways.
	e := SelectPartitionEdge(mg)
	var cfg1, cfg2 *callgraph.Config
	var size1, size2 int
	ev.parallelEach(2, func(i int) {
		if i == 0 {
			cfg1, size1 = ev.eval(mg.RemoveEdge(e.ID), decided, nil)
		} else {
			cfg2, size2 = ev.eval(mg.ContractEdge(e.ID), decided.Clone().Set(e.ID, true), nil)
		}
	})
	if size1 <= size2 {
		return cfg1, size1
	}
	return cfg2, size2
}

// parallelEach runs n closures, possibly concurrently if worker tokens are
// available; it always runs index 0 on the calling goroutine.
//
// The pool is fire-and-forget by design: a closure either grabs a token and
// runs on a fresh goroutine or runs inline on the caller, so a parent
// blocked on children always has at least one child running on its own
// stack — including when every token holder is parked on a single-flight
// memo or cache slot (the solver of that slot is itself running inline
// somewhere). A FIFO work queue would deadlock exactly there, and pushing a
// shared best-size through it (the classic branch-and-bound driver) would
// trade the bit-exact counter guarantee for schedule-dependent pruning; the
// handles and the component memo carry the incumbent instead (prune.go).
func (ev *evaluator) parallelEach(n int, fn func(i int)) {
	if ev.tokens == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	done := make(chan int, n-1)
	spawned := 0
	for i := 1; i < n; i++ {
		select {
		case ev.tokens <- struct{}{}:
			spawned++
			go func(ix int) {
				defer func() { <-ev.tokens }()
				fn(ix)
				done <- ix
			}(i)
		default:
			fn(i)
		}
	}
	fn(0)
	for ; spawned > 0; spawned-- {
		<-done
	}
}

// NaiveOptimal enumerates the full 2^E space; usable only for tiny graphs
// and used by tests to certify that the recursive search is exact.
func NaiveOptimal(c *compile.Compiler) (*callgraph.Config, int) {
	sites := c.Graph().Sites()
	if len(sites) > 22 {
		panic("search: NaiveOptimal on a graph with more than 22 edges")
	}
	best := callgraph.NewConfig()
	bestSize := c.Size(best)
	for mask := uint64(1); mask < 1<<uint(len(sites)); mask++ {
		cfg := callgraph.NewConfig()
		for i, s := range sites {
			if mask&(1<<uint(i)) != 0 {
				cfg.Set(s, true)
			}
		}
		if size := c.Size(cfg); size < bestSize {
			best, bestSize = cfg, size
		}
	}
	return best, bestSize
}
