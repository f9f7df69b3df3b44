package link

import (
	"fmt"

	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/ir"
)

// Content keys for the component-level result cache (resultcache.go).
//
// The soundness argument mirrors FnCache's (internal/compile/fncache.go):
// a cached per-component search or tune result may be replayed for a
// component of a *different* link plan exactly when every input the solve
// depends on is pinned by the key. Those inputs are:
//
//   - The member functions' bodies. Function.Fingerprint is rename-invariant
//     and own-name-free, so structurally identical members hash equally even
//     when the linker renamed them differently (name__tuNNN suffixes differ
//     across plans). Codegen sizes, inline expansion, and DFE are all
//     name-independent, so bodies-by-fingerprint is the right granularity.
//   - The members' linked linkage. Dead-function elimination keeps exported
//     functions alive, so the post-Internalize exported bit of every member
//     is keyed even though it is not part of the body fingerprint.
//   - The bound call structure. Fingerprints stream callee *source*
//     spellings, but the linker rewrites spellings during materialization;
//     two components with fingerprint-equal members could still bind the
//     same call slot to different members (or leave it external). The key
//     therefore streams, per call slot in layout/walk order, the bound
//     callee's member ordinal + 1, or 0 for unbound (external) calls. A
//     bound callee is always a member of the same component — edges are
//     what define component membership — so ordinals are a complete
//     encoding. Site IDs are deliberately NOT keyed: the search is
//     label-equivariant in site numbering (the cached configuration is
//     stored as bits over the component's edges in ascending-site order and
//     rebased onto the replaying plan's site IDs).
//   - The codegen target and the compile pipeline version (via the schema
//     string), exactly as FnCache pins them.
//
// Collisions: keys are 128-bit ir.Hasher sums, the same accept-the-risk
// stance as the rest of the content-addressed caches; the -no-relink cold
// oracle and the differential fuzzer are the safety net.
const relinkKeyVersion = 1

var relinkSchema = fmt.Sprintf("optinline/linkcache/key=%d/pipeline=%d",
	relinkKeyVersion, compile.PipelineVersion)

// ResultKey is a 128-bit content key into a ComponentCache.
type ResultKey struct{ Hi, Lo uint64 }

// componentKey chains the content of one edge-bearing component: schema,
// target, member count, and per member (layout order) its body fingerprint,
// linked linkage, call-slot count, and the member ordinal each call slot
// binds to (0 = external).
func componentKey(p *Plan, sums []*tuSummary, ci int, target codegen.Target) ResultKey {
	members := p.Components[ci]
	local := make(map[int]int, len(members)) // Funcs index -> member ordinal
	for i, fi := range members {
		local[fi] = i
	}
	// Bound target per call slot, indexed by site. Sites of a member's calls
	// are [SiteID, SiteID+NCalls); edges carry the binding.
	bound := make(map[int]int, len(members))
	for _, e := range p.ComponentEdges(ci) {
		bound[e.Site] = local[e.Callee]
	}
	h := ir.NewHasher()
	h.Str(relinkSchema)
	h.Byte(byte(target))
	h.Int(len(members))
	for _, fi := range members {
		pf := &p.Funcs[fi]
		h.Uint64(sums[pf.TU].funcs[sums[pf.TU].byName[pf.Src]].fp)
		h.Byte(boolByte(pf.Exported))
		h.Int(pf.NCalls)
		for k := 0; k < pf.NCalls; k++ {
			if ord, ok := bound[pf.SiteID+k]; ok {
				h.Int(ord + 1)
			} else {
				h.Int(0)
			}
		}
	}
	hi, lo := h.Sum128()
	return ResultKey{Hi: hi, Lo: lo}
}

// searchKey derives the optimal-search cache key from a component key.
// Workers, the compiler's oracle switches (SetPrune, SetDelta, SetFnCache)
// and scheduling do not enter: the search result is oracle-guaranteed
// independent of them.
func searchKey(base ResultKey) ResultKey {
	h := ir.NewHasher()
	h.Str("search")
	h.Uint64(base.Hi)
	h.Uint64(base.Lo)
	hi, lo := h.Sum128()
	return ResultKey{Hi: hi, Lo: lo}
}

// tuneKey derives the lockstep-tuning cache key: the starting configuration
// and the round bound both shape the recorded trace, so both are keyed.
func tuneKey(base ResultKey, init TuneInit, rounds int) ResultKey {
	h := ir.NewHasher()
	h.Str("tune")
	h.Uint64(base.Hi)
	h.Uint64(base.Lo)
	h.Byte(byte(init))
	h.Int(rounds)
	hi, lo := h.Sum128()
	return ResultKey{Hi: hi, Lo: lo}
}

// residKey chains the residual (edge-free) functions of one TU: schema,
// target, count, and per function (layout order) fingerprint and linkage.
// Residual functions have no incident candidate edge, so each compiles in
// isolation — no in-edges to inline it away, every outgoing call unbound —
// which is why a per-TU sum replays a whole-residual-module compile exactly
// (the fuzz differential re-proves this equality on every corpus).
func residKey(p *Plan, sums []*tuSummary, t int, target codegen.Target) ResultKey {
	h := ir.NewHasher()
	h.Str(relinkSchema)
	h.Str("resid")
	h.Byte(byte(target))
	n := 0
	for fi := range p.Funcs {
		pf := &p.Funcs[fi]
		if pf.TU != t || pf.Comp >= 0 {
			continue
		}
		n++
		h.Uint64(sums[pf.TU].funcs[sums[pf.TU].byName[pf.Src]].fp)
		h.Byte(boolByte(pf.Exported))
	}
	h.Int(n)
	hi, lo := h.Sum128()
	return ResultKey{Hi: hi, Lo: lo}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
