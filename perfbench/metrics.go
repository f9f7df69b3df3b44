package main

import (
	"time"

	"optinline/internal/compile"
	"optinline/internal/search"
)

// setupFunc sets up a fresh, seeded state whose timed phase can run once.
type setupFunc func(o options) (state, error)

var workloads = map[string]setupFunc{
	"optimal-corpus": setupOptimal,
	"tune-large":     setupTune,
	"serve-mixed":    setupServe,
}

// state is one set-up workload.
type state interface {
	// timed runs the timed phase: ops until the deadline has passed and
	// the minimum op count is reached, or the ops run out (tune-large runs
	// whole passes instead).
	timed(tr *tracer, deadline time.Time) []opRec
	// check verifies the completed ops' results outside the timed section
	// and returns how many failed, notes on skipped checks, and the
	// quality ratios of the checked results.
	check() (failed int, notes []string, q quality)
	// layers returns the per-layer counters of the timed phase.
	layers() map[string]float64
	close()
}

// quality holds the per-result ratios behind size_vs_os and cycles_vs_os.
type quality struct {
	size, cycles []float64
}

// phase is one timed phase and everything measured around it.
type phase struct {
	setupS                   float64
	ops                      []opRec
	elapsed, cpu             float64 // wall and process CPU seconds
	gcShare                  float64
	allocBytes, allocObjects float64
	spans                    []span
	layers                   map[string]float64
	failed                   int
	notes                    []string
	quality                  quality
	rssMB                    float64
	stealShare               float64
}

// latenciesMs returns the wall-clock latencies of the ops of one kind (all
// kinds for ""), in milliseconds.
func (ph *phase) latenciesMs(kind string) []float64 {
	var out []float64
	for _, op := range ph.ops {
		if kind == "" || op.Kind == kind {
			out = append(out, op.Seconds*1000)
		}
	}
	return out
}

// cpuMs returns every op's CPU time in milliseconds.
func (ph *phase) cpuMs() []float64 {
	out := make([]float64, len(ph.ops))
	for i, op := range ph.ops {
		out[i] = op.CPU * 1000
	}
	return out
}

// endToEnd returns the metrics a user of the system sees. Times are CPU
// time: on a virtual machine whose CPUs the hypervisor also gives to other
// guests, wall-clock figures of one input move with that steal by more
// than any bound (the wall-clock figures are per-layer metrics).
func endToEnd(ph *phase) map[string]metric {
	cpu := ph.cpuMs()
	n := float64(len(ph.ops))
	return map[string]metric{
		"setup_s":       {ph.setupS, "s"},
		"ops_per_cpu_s": {ratio(n, ph.cpu), "1/cpu_s"},
		"op_cpu_p50_ms": {quantile(cpu, 0.5), "ms"},
		"op_cpu_p90_ms": {quantile(cpu, 0.9), "ms"},
		"ok_ratio":      {1 - ratio(float64(ph.failed), n), "ratio"},
		"peak_rss_mb":   {ph.rssMB, "MiB"},
		"size_vs_os":    {geomean(ph.quality.size), "ratio"},
		"cycles_vs_os":  {geomean(ph.quality.cycles), "ratio"},
	}
}

// spanLayers maps span names to the per-layer time metric they feed.
var spanLayers = map[string]string{
	"source.from_bytes":      "source.busy_s",
	"compile.new":            "compile.new_s",
	"heuristic.os_config":    "heuristic.busy_s",
	"search.space_count":     "search.space_count_s",
	"search.optimal":         "search.optimal_s",
	"autotune.combined":      "autotune.busy_s",
	"autotune.tune_weighted": "autotune.busy_s",
	"interp.collect":         "interp.collect_s",
	"link.session_new":       "link.session_new_s",
	"link.patch":             "link.patch_s",
	"link.tune":              "link.query_s",
	"link.search":            "link.query_s",
}

// serverEndpoints are the op kinds of serve-mixed whose client-side
// latency percentiles are per-layer metrics.
var serverEndpoints = []string{"compile", "search", "tune", "analyze", "link_patch", "link_search"}

// perLayerUnits lists every per-layer metric with its unit. Layers a
// workload bypasses print 0.
func perLayerUnits() map[string]string {
	units := map[string]string{
		"source.busy_s":                  "s",
		"source.bytes_per_s":             "B/s",
		"compile.new_s":                  "s",
		"compile.evals":                  "count",
		"compile.fncache_hit_ratio":      "ratio",
		"compile.config_cache_hit_ratio": "ratio",
		"compile.delta_dirty_per_eval":   "count",
		"compile.cycle_repricings":       "count",
		"compile.cycle_replay_events":    "count",
		"compile.cycle_cost_hit_ratio":   "ratio",
		"interp.collect_s":               "s",
		"heuristic.busy_s":               "s",
		"search.space_count_s":           "s",
		"search.optimal_s":               "s",
		"search.evals":                   "count",
		"search.memo_hit_ratio":          "ratio",
		"search.pruned_subtrees":         "count",
		"search.bound_evals":             "count",
		"autotune.busy_s":                "s",
		"autotune.probes_per_s":          "1/s",
		"link.session_new_s":             "s",
		"link.patch_s":                   "s",
		"link.query_s":                   "s",
		"link.plan_reuse_ratio":          "ratio",
		"link.replay_ratio":              "ratio",
		"server.queue_waited_ratio":      "ratio",
		"server.queue_peak":              "count",
		"server.compiler_pool_hit_ratio": "ratio",
		"server.relink_cache_hit_ratio":  "ratio",
		"server.resp_bytes_per_op":       "B",
		"runtime.gc_cpu_share":           "ratio",
		"runtime.alloc_bytes_per_op":     "B",
		"runtime.allocs_per_op":          "count",
		"op.samples":                     "count",
		"wall.ops_per_s":                 "1/s",
		"wall.op_p50_ms":                 "ms",
		"wall.op_p90_ms":                 "ms",
		"host.steal_share":               "ratio",
		"trace.overhead_ratio":           "ratio",
	}
	for _, ep := range serverEndpoints {
		units["server."+ep+".p50_ms"] = "ms"
		units["server."+ep+".p90_ms"] = "ms"
	}
	return units
}

// perLayer returns the per-layer metrics of a traced phase: span self
// times, the workload's counters, client-side endpoint latencies and the
// runtime's counters.
func perLayer(ph *phase) map[string]metric {
	units := perLayerUnits()
	vals := make(map[string]float64, len(units))
	for name, s := range selfTimes(ph.spans) {
		if m, ok := spanLayers[name]; ok {
			vals[m] += s
		}
	}
	for name, v := range ph.layers {
		switch name {
		case "source.bytes":
			vals["source.bytes_per_s"] = ratio(v, vals["source.busy_s"])
		case "autotune.probes":
			vals["autotune.probes_per_s"] = ratio(v, vals["autotune.busy_s"])
		default:
			vals[name] = v
		}
	}
	for _, ep := range serverEndpoints {
		lat := ph.latenciesMs(ep)
		vals["server."+ep+".p50_ms"] = quantile(lat, 0.5)
		vals["server."+ep+".p90_ms"] = quantile(lat, 0.9)
	}
	n := float64(len(ph.ops))
	lat := ph.latenciesMs("")
	vals["wall.ops_per_s"] = ratio(n, ph.elapsed)
	vals["wall.op_p50_ms"] = quantile(lat, 0.5)
	vals["wall.op_p90_ms"] = quantile(lat, 0.9)
	vals["host.steal_share"] = ph.stealShare
	vals["runtime.gc_cpu_share"] = ph.gcShare
	vals["runtime.alloc_bytes_per_op"] = ratio(ph.allocBytes, n)
	vals["runtime.allocs_per_op"] = ratio(ph.allocObjects, n)
	vals["op.samples"] = n
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{vals[name], unit}
	}
	return out
}

// counters are the layer counters one op contributes.
type counters struct {
	evals, deltaEvals, deltaDirty         int64
	cfgHits, cfgMisses, fnHits, fnMisses  int64
	searchEvals, memoHits, memoMisses     int64
	pruned, boundEvals                    int64
	repricings, replayEvents              int64
	costHits, costMisses                  int64
	planReuses, patches, solved, replayed int64
}

func (k *counters) addCompiler(c *compile.Compiler) {
	k.evals += c.Evaluations()
	cs := c.ConfigCacheStats()
	k.cfgHits += cs.Hits
	k.cfgMisses += cs.Misses
	fs := c.FuncCacheStats()
	k.fnHits += fs.Hits
	k.fnMisses += fs.Misses
	ds := c.DeltaStats()
	k.deltaEvals += ds.Evals
	k.deltaDirty += ds.DirtyFuncs
}

func (k *counters) addSearch(r search.Result) {
	k.searchEvals += r.Evaluations
	k.memoHits += r.Prune.MemoHits
	k.memoMisses += r.Prune.MemoMisses
	k.pruned += r.Prune.Subtrees
	k.boundEvals += r.Prune.BoundEvals
}

func (k *counters) addPricer(s compile.CyclePricerStats) {
	k.repricings += s.Repricings
	k.replayEvents += s.ReplayEvents
	k.costHits += s.CostHits
	k.costMisses += s.CostMisses
}

// metrics renders the counters as per-layer metric values.
func (k *counters) metrics() map[string]float64 {
	f := func(v int64) float64 { return float64(v) }
	return map[string]float64{
		"compile.evals":                  f(k.evals),
		"compile.fncache_hit_ratio":      ratio(f(k.fnHits), f(k.fnHits+k.fnMisses)),
		"compile.config_cache_hit_ratio": ratio(f(k.cfgHits), f(k.cfgHits+k.cfgMisses)),
		"compile.delta_dirty_per_eval":   ratio(f(k.deltaDirty), f(k.deltaEvals)),
		"compile.cycle_repricings":       f(k.repricings),
		"compile.cycle_replay_events":    f(k.replayEvents),
		"compile.cycle_cost_hit_ratio":   ratio(f(k.costHits), f(k.costHits+k.costMisses)),
		"search.evals":                   f(k.searchEvals),
		"search.memo_hit_ratio":          ratio(f(k.memoHits), f(k.memoHits+k.memoMisses)),
		"search.pruned_subtrees":         f(k.pruned),
		"search.bound_evals":             f(k.boundEvals),
		"link.plan_reuse_ratio":          ratio(f(k.planReuses), f(k.patches)),
		"link.replay_ratio":              ratio(f(k.replayed), f(k.solved+k.replayed)),
	}
}
