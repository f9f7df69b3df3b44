package link

import "optinline/internal/flight"

// ComponentCache is the content-keyed store behind incremental re-link: it
// maps 128-bit component content keys (key.go) to solved per-component
// results — optimal configurations, sizes, tuning traces, residual sizes —
// so a Session re-solves only components whose content actually changed and
// replays the rest. It is a flight.Group; values are immutable after
// fulfilment, and replayers must not mutate what they receive.
type ComponentCache struct {
	g flight.Group[ResultKey, any]
}

// NewComponentCache returns an empty cache.
func NewComponentCache() *ComponentCache { return &ComponentCache{} }

// defaultComponentCache backs CLI sessions (SessionOptions.Results nil), so
// every -relink replay in one process shares solved components.
var defaultComponentCache = NewComponentCache()

// ComponentCacheStats is a counter snapshot.
type ComponentCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Stats snapshots the counters. Entries counts fulfilled values only.
func (cc *ComponentCache) Stats() ComponentCacheStats {
	g := cc.g.Stats()
	st := ComponentCacheStats{Hits: g.Hits, Misses: g.Misses}
	cc.g.Range(func(ResultKey, any) bool {
		st.Entries++
		return true
	})
	return st
}

// get returns the value cached under key, computing it on the first
// request; a failed compute is returned to this caller and not cached. A
// nil cache computes every request.
func (cc *ComponentCache) get(key ResultKey, compute func() (any, error)) (v any, hit bool, err error) {
	if cc == nil {
		v, err = compute()
		return v, false, err
	}
	return cc.g.Do(key, compute)
}

// Cached payloads. bits fields are inline labels over the component's edges
// in ascending-site order (bit i of word i/64 = edge i inlined), the
// site-number-free form that makes results portable across plans; sizes are
// bytes of the component sub-module.
//
// searchOutcome caches one optimal search: the clean-slate size, the
// optimal size, and the optimal labels.
type searchOutcome struct {
	emptySize int
	size      int
	bits      []uint64
}

// tuneOutcome caches one lockstep tuning run from a fixed (init, rounds)
// request: the starting size/labels and one tuneRound per global round
// actually stepped. A recorded trace is either rounds long or ends at a
// round where the *whole link's* toggles hit zero — and a component's own
// toggles are zero at its last recorded round in that case — so replaying
// past the end by repeating the final entry with zero toggles is exact
// (autotune.Session.Step replays fixpoints the same way).
type tuneOutcome struct {
	initSize int
	initBits []uint64
	rounds   []tuneRound
}

type tuneRound struct {
	size    int
	toggles int
	bits    []uint64
}

// round returns the trace entry for 1-based global round r, padding past
// the recorded end with the converged fixpoint.
func (t *tuneOutcome) round(r int) tuneRound {
	if r <= len(t.rounds) {
		return t.rounds[r-1]
	}
	last := t.rounds[len(t.rounds)-1]
	last.toggles = 0
	return last
}
