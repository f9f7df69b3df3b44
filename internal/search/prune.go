package search

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/flight"
	"optinline/internal/graph"
)

// This file implements the branch-and-bound layer of the optimal search:
// a component-optimum memo and admissible lower bounds, both exact — the
// pruned search returns byte-identical configurations, sizes, and even
// evaluation counters for every worker count.
//
// # Component memo
//
// A single-component search node is a subproblem: "given the labels decided
// on the path so far, find the optimal labeling of this component's edges".
// RemoveEdge/ContractEdge regenerate identical component subgraphs all over
// the tree, but the optimum of a component is *not* a function of its edge
// multiset alone — the decided context leaks in through two channels:
//
//   - functions already fused to the component by decided-inline edges
//     (their bodies grow with every label the subtree flips), and
//   - the component's callees being pinned alive (or not) by a
//     decided-no-inline incoming edge outside the component, which decides
//     whether inlining their last incoming edge deletes them.
//
// The memo key therefore canonicalizes exactly that context: the component's
// site set, the decided-inline sites of the component's inline cluster (the
// functions reachable from the component over decided-inline edges), and
// one pinned-alive bit per component callee. Two nodes with equal keys see
// the same subgraph (node representatives are min-merged, so they even agree
// on endpoints), the same partition-edge choices, and size landscapes that
// differ by an additive constant (the contributions of functions outside the
// cluster, which no label under the component can touch) — so they share
// the same optimal local labeling, which is what the memo stores. The table
// is single-flight like compile/memo.go: concurrent workers hitting the
// same subproblem share one solve — and the solve itself is re-anchored to
// a prefix derived from the key alone (see evalComponent), so which worker
// wins the race changes nothing observable, down to the eval counters.
//
// # Admissible bound
//
// At a binary node the search holds a contribution handle for the decided
// prefix D (compile.Sized, maintained outside the config cache): the total
// size at D and its per-function decomposition. Every completion explored
// below differs from D only in labels of the component's edges, and the
// only functions whose contribution those labels can change are the inline
// cluster's (anything else neither changes its closure nor its DFE
// survival). A contribution is never negative, so
//
//	Size(D ∪ L) >= Size(D) - Σ_{f in cluster} contrib_D(f)
//
// for every completion L — an admissible bound. Note this is *not* the
// naive per-edge bound (summing each undecided edge's cheaper label):
// label-based dead-function elimination makes deltas superadditive —
// inlining all incoming edges of a callee deletes it, so a set of
// individually-losing toggles can win together — and the per-edge bound is
// inadmissible. Bounding by "every cluster contribution drops to zero" is
// immune to that interaction.
//
// The branch whose leftmost leaf is the decided prefix itself anchors the
// incumbent: the remove branch contains D, the contract branch contains
// D+e, and both sizes are already priced by the handles. Pruning compares
// one branch's bound against the other branch's anchored leaf, with each
// branch's mass summed over that branch's OWN remaining cluster — the
// functions its still-undecided edges can reach over decided-inline fusion
// (see branchAndBound for why the parent node's cluster provably never
// fires):
//
//	bound(contract) >= Size(D)    =>  contract branch cannot win (ties go
//	                                  to remove, matching size1 <= size2)
//	bound(remove)   >  Size(D+e)  =>  remove branch cannot win
//
// Both tests depend only on the memo key and the partition edge (the
// out-of-cluster constant cancels), so pruning decisions — and with them
// the set of configurations ever evaluated — are schedule-independent.
// The two conditions cannot hold at once (that would need a negative mass).
//
// # Incumbent sharing
//
// The handles *are* the incumbent channel: each branch inherits a rebased
// handle (D or D+e), so the anchored incumbent tightens as decided inline
// labels accumulate, and the single-flight memo shares solved subproblems
// across all workers. A mutable global best-size would be both unsound here
// (component subtrees price partial configurations — their sizes are not
// comparable to an incumbent from another component or from a combine
// evaluation) and schedule-dependent (whichever worker publishes first
// would change which subtrees other workers prune, breaking the bit-exact
// counter guarantee the -jobs tests pin). The deterministic token pool in
// parallelEach is kept instead; see its comment.

// PruneStats reports the branch-and-bound layer's work: how many subtrees
// the bound cut, how the component-optimum memo performed, and how many
// bound handles were priced. All zero when pruning is off (-no-prune, memo
// off, checked mode).
type PruneStats struct {
	Enabled    bool
	Subtrees   int64 // branches skipped by the admissible bound
	MemoHits   int64 // component subproblems served from the memo
	MemoMisses int64 // component subproblems solved and stored
	BoundEvals int64 // contribution handles rebased to price bounds
}

// Add accumulates counters (Enabled is OR-ed), for corpus-wide aggregation.
func (p PruneStats) Add(o PruneStats) PruneStats {
	return PruneStats{
		Enabled:    p.Enabled || o.Enabled,
		Subtrees:   p.Subtrees + o.Subtrees,
		MemoHits:   p.MemoHits + o.MemoHits,
		MemoMisses: p.MemoMisses + o.MemoMisses,
		BoundEvals: p.BoundEvals + o.BoundEvals,
	}
}

// String renders the stats line the CLIs print on stderr.
func (p PruneStats) String() string {
	if !p.Enabled {
		return "disabled"
	}
	return fmt.Sprintf("%d subtrees pruned, memo %d hits / %d misses, %d bound evaluations",
		p.Subtrees, p.MemoHits, p.MemoMisses, p.BoundEvals)
}

// engine holds the static site indexes, the single-flight component memo,
// and the pruning counters of one Optimal run.
type engine struct {
	n       int         // function count; node IDs of every subgraph index it
	siteU   map[int]int // site -> caller function index
	siteV   map[int]int // site -> callee function index
	inSites [][]int     // function index -> incoming candidate sites, ascending

	memo flight.Group[string, compSolution] // subproblem key -> solution

	pruned     atomic.Int64
	boundEvals atomic.Int64
}

// compSolution is a solved subproblem: its optimal inline sites within the
// component, the optimal size in the subproblem's own anchor frame, and the
// anchor's size — everything a hit needs to reconstruct its answer by pure
// arithmetic.
type compSolution struct {
	sites     []int
	localSize int // optimal size of clusterSites ∪ sites
	baseSize  int // size of clusterSites alone (the frame anchor)
}

func newEngine(g *callgraph.Graph) *engine {
	eng := &engine{
		n:       len(g.Nodes),
		siteU:   make(map[int]int, len(g.Edges)),
		siteV:   make(map[int]int, len(g.Edges)),
		inSites: make([][]int, len(g.Nodes)),
	}
	for _, e := range g.Edges {
		u, v := g.Index[e.Caller], g.Index[e.Callee]
		eng.siteU[e.Site] = u
		eng.siteV[e.Site] = v
		eng.inSites[v] = append(eng.inSites[v], e.Site)
	}
	for _, in := range eng.inSites {
		sort.Ints(in)
	}
	return eng
}

func (eng *engine) stats() PruneStats {
	memo := eng.memo.Stats()
	return PruneStats{
		Enabled:    true,
		Subtrees:   eng.pruned.Load(),
		MemoHits:   memo.Hits,
		MemoMisses: memo.Misses,
		BoundEvals: eng.boundEvals.Load(),
	}
}

// subproblem is the canonical identity of one single-component search node,
// plus the decided inline sites of its cluster (the anchor of the
// subproblem's local frame).
type subproblem struct {
	key          string
	csites       *callgraph.Config // the component's site set, for membership
	clusterSites []int             // decided-inline sites of the cluster, ascending
}

// clusterOf returns the functions whose contribution the undecided labels
// of mg can still change — the union of the inline clusters (functions
// fused by decided-inline edges) that mg's edges touch — plus the
// decided-inline sites owned inside that set. It is the mass set of the
// admissible bound and the context part of the memo key.
func (eng *engine) clusterOf(mg *graph.Multigraph, decided *callgraph.Config) (cluster, clusterSites []int) {
	// Union-find over the original function nodes, merging the endpoints of
	// every decided-inline site: the classes are the function clusters fused
	// by the inlining decided so far.
	parent := make([]int32, eng.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int) int32 {
		r := int32(x)
		for parent[r] != r {
			parent[r] = parent[parent[r]]
			r = parent[r]
		}
		return r
	}
	inl := decided.InlineSites()
	for _, s := range inl {
		ru, rv := find(eng.siteU[s]), find(eng.siteV[s])
		if ru != rv {
			parent[ru] = rv
		}
	}
	// Mark the classes the component touches. Edge endpoints are class
	// representatives already (ContractEdge merges to the minimum node ID,
	// which the union-find maps to the same class as every absorbed node).
	marked := make([]bool, eng.n)
	for _, e := range mg.Edges {
		marked[find(e.U)] = true
		marked[find(e.V)] = true
	}
	for n := 0; n < eng.n; n++ {
		if marked[find(n)] {
			cluster = append(cluster, n)
		}
	}
	for _, s := range inl {
		if marked[find(eng.siteU[s])] {
			clusterSites = append(clusterSites, s)
		}
	}
	return cluster, clusterSites
}

// canon canonicalizes a single-component node under its decided prefix.
func (eng *engine) canon(mg *graph.Multigraph, decided *callgraph.Config) subproblem {
	_, clusterSites := eng.clusterOf(mg, decided)

	csites := callgraph.NewConfigOf(mg.EdgeIDs())
	// One pinned-alive bit per component callee (ascending function index):
	// whether an incoming candidate edge outside the component is decided
	// no-inline, keeping the callee alive no matter how the component's own
	// incoming edges are labeled. Undecided incoming edges are always inside
	// the component (they would be connected to it otherwise), and the
	// callee's static pins (exported, recursive, no incoming edges) are
	// functions of its identity, which the component's site set fixes — so
	// this one dynamic bit completes the callee's DFE context.
	calleeSet := make(map[int]bool)
	for _, e := range mg.Edges {
		calleeSet[eng.siteV[e.ID]] = true
	}
	callees := make([]int, 0, len(calleeSet))
	for c := range calleeSet {
		callees = append(callees, c)
	}
	sort.Ints(callees)
	bits := make([]byte, len(callees))
	for i, c := range callees {
		bits[i] = '0'
		for _, s := range eng.inSites[c] {
			if !csites.Inline(s) && !decided.Inline(s) {
				bits[i] = '1'
				break
			}
		}
	}

	ck := csites.CacheKey()
	lk := callgraph.NewConfigOf(clusterSites).CacheKey()
	key := strconv.Itoa(len(ck)) + ":" + ck + "|" + strconv.Itoa(len(lk)) + ":" + lk + "|" + string(bits)
	return subproblem{key: key, csites: csites, clusterSites: clusterSites}
}

// evalComponent handles a single-component node with the engine active:
// serve the subproblem from the memo, or solve it with branch-and-bound and
// store the component-local optimum.
//
// The solve runs in the subproblem's own frame: the decided prefix is
// re-anchored to exactly the cluster's decided-inline sites (a pure
// function of the memo key) before recursing. Two instances of the same
// key can carry different full prefixes — they agree on everything the
// subtree can see, but differ in labels outside the cluster — and which
// instance wins the single-flight race is scheduling. If the solve priced
// configurations under the winner's own prefix, the set of configurations
// reaching the counted whole-config cache would depend on that race, and
// with it the evaluation counters the -jobs determinism tests pin.
// Re-anchoring makes every priced configuration clusterSites ∪ L — a
// function of the key alone — so the counted set is schedule-independent.
//
// Exactness of the frame: for every completion L of the component,
//
//	Size(D ∪ L) − Size(clusterSites ∪ L) = const over L
//
// (functions outside the cluster contribute the same under any L, and
// functions inside see identical closures and DFE context either way —
// the same argument that justifies the memo key). The frame therefore
// preserves the argmin, and the true size is recovered by arithmetic:
// Size(D ∪ L*) = Size(D) + localSize − baseSize. Hits use the same
// identity and touch no cache at all.
func (ev *evaluator) evalComponent(mg *graph.Multigraph, decided *callgraph.Config, h *compile.Sized) (*callgraph.Config, int) {
	eng := ev.eng
	sp := eng.canon(mg, decided)
	sol, _, _ := eng.memo.Do(sp.key, func() (compSolution, error) { return ev.solveComponent(mg, sp), nil })
	cfg := decided.Clone()
	for _, s := range sol.sites {
		cfg.Set(s, true)
	}
	return cfg, h.Size() + sol.localSize - sol.baseSize
}

// solveComponent solves one subproblem in its anchor frame with
// branch-and-bound.
func (ev *evaluator) solveComponent(mg *graph.Multigraph, sp subproblem) compSolution {
	anchor := callgraph.NewConfigOf(sp.clusterSites)
	hl := ev.c.RebaseContrib(ev.root, sp.clusterSites)
	var cfgLocal *callgraph.Config
	var localSize, baseSize int
	if hl.HasContrib() {
		baseSize = hl.Size()
		cfgLocal, localSize = ev.branchAndBound(mg, anchor, hl)
	} else {
		// Defensive: the anchor provably compiles whenever the caller's
		// handle does (cluster closures are identical, everything else is
		// at the clean slate), so this path should be unreachable — but a
		// deterministic fallback beats a panic: solve the frame
		// exhaustively and price the anchor through the counted cache.
		baseSize = ev.sizeOf(anchor)
		cfgLocal, localSize = ev.eval(mg, anchor, nil)
	}
	// Store only the labels within the component; hit and miss alike
	// overlay them on their own decided prefix. The frame's leftmost leaf
	// is the anchor itself, which compiles, so the optimum is always
	// finite — every solve is storable.
	var local []int
	for _, s := range cfgLocal.InlineSites() {
		if sp.csites.Inline(s) {
			local = append(local, s)
		}
	}
	return compSolution{sites: local, localSize: localSize, baseSize: baseSize}
}

// branchAndBound is the binary node with pruning: price the contract
// prefix's handle, cut whichever branch the admissible bound proves cannot
// win, and otherwise recurse into both like the exhaustive search.
//
// Each branch's mass is summed over that branch's OWN remaining cluster —
// the functions its still-undecided edges can touch — not the parent
// node's. The distinction is what lets the bound fire at all: a mass that
// includes the partition edge's endpoints always dominates the single-edge
// delta it is compared against (endpoint contributions bound the delta),
// but a branch whose component is exhausted has an empty cluster, a zero
// mass, and therefore an exact bound — its anchored prefix IS its only
// completion, and a losing one is skipped without evaluating the leaf.
func (ev *evaluator) branchAndBound(mg *graph.Multigraph, decided *callgraph.Config, h *compile.Sized) (*callgraph.Config, int) {
	e := SelectPartitionEdge(mg)
	eng := ev.eng
	eng.boundEvals.Add(1)
	h2 := ev.c.RebaseContrib(h, []int{e.ID})
	mgRm, mgCt := mg.RemoveEdge(e.ID), mg.ContractEdge(e.ID)
	decCt := decided.Clone().Set(e.ID, true)
	if h2.HasContrib() {
		ctCluster, _ := eng.clusterOf(mgCt, decCt)
		if h2.Size()-h2.ContribSum(ctCluster) >= h.Size() {
			// No completion of the contract branch can beat the remove
			// branch's anchored leaf (the decided prefix itself); ties go to
			// remove, matching the unpruned size1 <= size2 rule.
			eng.pruned.Add(1)
			return ev.eval(mgRm, decided, h)
		}
		rmCluster, _ := eng.clusterOf(mgRm, decided)
		if h.Size()-h.ContribSum(rmCluster) > h2.Size() {
			// No completion of the remove branch can strictly beat the
			// contract branch's anchored leaf. (Both tests firing at once
			// would need a negative mass, so the order is immaterial.)
			eng.pruned.Add(1)
			return ev.eval(mgCt, decCt, h2)
		}
	}
	var h2pass *compile.Sized
	if h2.HasContrib() {
		h2pass = h2 // an InfSize prefix disables pruning below it
	}
	var cfg1, cfg2 *callgraph.Config
	var size1, size2 int
	ev.parallelEach(2, func(i int) {
		if i == 0 {
			cfg1, size1 = ev.eval(mgRm, decided, h)
		} else {
			cfg2, size2 = ev.eval(mgCt, decCt, h2pass)
		}
	})
	if size1 <= size2 {
		return cfg1, size1
	}
	return cfg2, size2
}
