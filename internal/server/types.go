package server

import (
	"encoding/json"

	"optinline/internal/diag"
)

// JSON request/response schemas of the inlined service. Responses to the
// three work endpoints deliberately contain only *deterministic* fields —
// pure functions of the request — so that replaying a request yields a
// byte-identical body no matter how caches are warmed, how many clients
// run, or how the scheduler interleaves them. Volatile counters (cache
// hits, evaluation counts, queue depths) live in /stats instead.

// AnalyzeRequest asks for the interprocedural summary analysis of one
// translation unit: per-function summaries, the cross-function lints, and
// the per-site feature vectors of the SiteFeatures schema.
type AnalyzeRequest struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Target  string `json:"target,omitempty"` // x86 (default) | wasm; echoed only
	Jobs    int    `json:"jobs,omitempty"`
	DelayMs int    `json:"delayMs,omitempty"`
}

// AnalyzeSite is one candidate call site with its feature vector
// (featureNames in the response names each slot).
type AnalyzeSite struct {
	Site     int       `json:"site"`
	Caller   string    `json:"caller"`
	Callee   string    `json:"callee"`
	Features []float64 `json:"features"`
}

// AnalyzeResponse reports the analysis. Everything in it is a pure
// function of the request: functions are in module order, findings and
// sites are sorted, and the summary cache can only change timing, never
// bytes.
type AnalyzeResponse struct {
	Name          string          `json:"name"`
	Target        string          `json:"target"`
	SchemaVersion int             `json:"schemaVersion"`
	FeatureNames  []string        `json:"featureNames"`
	Functions     json.RawMessage `json:"functions"`
	Findings      diag.List       `json:"findings"`
	Sites         []AnalyzeSite   `json:"sites"`
}

// CompileRequest asks for one translation unit to be compiled under an
// inlining strategy. Source is MinC or textual IR, dispatched on Name's
// extension (.minc or .ir) exactly like the CLIs' file loading.
type CompileRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Target string `json:"target,omitempty"` // x86 (default) | wasm
	Inline string `json:"inline,omitempty"` // none | os (default) | tune | optimal
	Rounds int    `json:"rounds,omitempty"` // autotuner rounds for inline=tune (default 4)
	// MaxSpace caps the recursive search space for inline=optimal;
	// 0 selects the server default.
	MaxSpace uint64 `json:"maxSpace,omitempty"`
	// Jobs is this request's worker budget, clamped to [1, server -jobs].
	// 0 selects 1: a service run should opt in to width explicitly.
	Jobs int `json:"jobs,omitempty"`
	// DelayMs injects synthetic latency before the work runs. Honored only
	// when the daemon was started with -allow-delay; used by load and
	// drain testing to make timing deterministic.
	DelayMs int `json:"delayMs,omitempty"`
}

// CompileResponse reports the strategy's outcome.
type CompileResponse struct {
	Name           string `json:"name"`
	Target         string `json:"target"`
	Inline         string `json:"inline"`
	Size           int    `json:"size"`
	InlinableSites int    `json:"inlinableSites"`
	InlinedSites   int    `json:"inlinedSites"`
	InlineSites    []int  `json:"inlineSites"`
	ConfigKey      string `json:"configKey"`
}

// SearchRequest asks for the exhaustive optimal search on one unit — the
// service form of `inlinesearch`.
type SearchRequest struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	Target   string `json:"target,omitempty"`
	MaxSpace uint64 `json:"maxSpace,omitempty"` // 0 selects the server default
	Jobs     int    `json:"jobs,omitempty"`
	DelayMs  int    `json:"delayMs,omitempty"`
}

// SearchResponse mirrors inlinesearch's report. When the recursive space
// exceeds MaxSpace the search does not run: Searched is false and only
// SpaceSize (the full tree size) plus the heuristic/no-inline figures are
// meaningful.
type SearchResponse struct {
	Name           string    `json:"name"`
	Target         string    `json:"target"`
	Searched       bool      `json:"searched"`
	SpaceSize      uint64    `json:"spaceSize"`
	NoInlineSize   int       `json:"noInlineSize"`
	HeuristicSize  int       `json:"heuristicSize"`
	OptimalSize    int       `json:"optimalSize,omitempty"`
	InlinableSites int       `json:"inlinableSites"`
	InlineSites    []int     `json:"inlineSites,omitempty"`
	ConfigKey      string    `json:"configKey,omitempty"`
	Agreement      [2][2]int `json:"agreement,omitempty"`
}

// TuneRequest asks for a round-based autotuning session — the service form
// of `inlinetune`.
type TuneRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Target string `json:"target,omitempty"`
	Init   string `json:"init,omitempty"` // clean | os (default)
	Rounds int    `json:"rounds,omitempty"`
	// Objective selects what the session minimizes: size (default),
	// weighted (bytes + lambda*cycles), or cycles. Cycle objectives profile
	// Entry(Args...) on the no-inline baseline once — the profile and its
	// pricer are cached and shared across requests — and reprice every
	// probe incrementally.
	Objective  string  `json:"objective,omitempty"`
	Lambda     float64 `json:"lambda,omitempty"`
	Entry      string  `json:"entry,omitempty"`      // profiled root; "" = entry
	Args       []int64 `json:"args,omitempty"`       // profiled arguments; nil = [7]
	Fuel       int64   `json:"fuel,omitempty"`       // profiling fuel; 0 = 20M
	CacheBytes int     `json:"cacheBytes,omitempty"` // modelled i-cache; 0 = default
	Jobs       int     `json:"jobs,omitempty"`
	DelayMs    int     `json:"delayMs,omitempty"`
}

// TuneRound is one round's trace (paper Table 4 shape). Cycles is present
// for cycle-aware objectives only.
type TuneRound struct {
	Round      int   `json:"round"`
	Size       int   `json:"size"`
	Cycles     int64 `json:"cycles,omitempty"`
	Inlined    int   `json:"inlined"`
	NotInlined int   `json:"notInlined"`
	Toggles    int   `json:"toggles"`
}

// TuneResponse reports the session. The cycle fields are present for
// cycle-aware objectives only.
type TuneResponse struct {
	Name        string      `json:"name"`
	Target      string      `json:"target"`
	Init        string      `json:"init"`
	Objective   string      `json:"objective,omitempty"`
	Lambda      float64     `json:"lambda,omitempty"`
	InitSize    int         `json:"initSize"`
	InitCycles  int64       `json:"initCycles,omitempty"`
	BestSize    int         `json:"bestSize"`
	BestCycles  int64       `json:"bestCycles,omitempty"`
	InlineSites []int       `json:"inlineSites"`
	ConfigKey   string      `json:"configKey"`
	Rounds      []TuneRound `json:"rounds"`
}

// LinkUnit is one translation unit of a linked session: a named source
// text, dispatched on Name's extension exactly like the work endpoints.
type LinkUnit struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// LinkCreateRequest — POST /link — opens (or, reusing an id, replaces) an
// incremental re-link session over the units. The session holds the
// resolved plan; later patch/search/tune requests address it by id.
type LinkCreateRequest struct {
	ID string `json:"id"`
	// Units are linked in order; unit names must be unique (they are the
	// patch addresses).
	Units []LinkUnit `json:"units"`
	// Target is fixed at creation; every search/tune of the session prices
	// against it.
	Target string `json:"target,omitempty"` // x86 (default) | wasm
	// DupPolicy: error (default) rejects exported symbols defined in
	// several units; rename renames the copies apart.
	DupPolicy string `json:"dupPolicy,omitempty"`
	Jobs      int    `json:"jobs,omitempty"`
	DelayMs   int    `json:"delayMs,omitempty"`
}

// LinkPlanSummary is the deterministic shape of a session's resolved plan.
type LinkPlanSummary struct {
	TUs           int `json:"tus"`
	Functions     int `json:"functions"`
	Sites         int `json:"sites"`
	CrossTU       int `json:"crossTu"`
	Renamed       int `json:"renamed"`
	ExternalCalls int `json:"externalCalls"`
	Components    int `json:"components"`
}

// LinkCreateResponse confirms the session and reports its plan.
type LinkCreateResponse struct {
	ID     string          `json:"id"`
	Target string          `json:"target"`
	Plan   LinkPlanSummary `json:"plan"`
}

// LinkPatchRequest — POST /link/{id}/patch — swaps one unit's contents.
// The unit is addressed by Unit.Name, which must match an existing unit.
type LinkPatchRequest struct {
	Unit    LinkUnit `json:"unit"`
	Jobs    int      `json:"jobs,omitempty"`
	DelayMs int      `json:"delayMs,omitempty"`
}

// LinkPatchResponse reports the patch. PlanReused is deterministic: true
// exactly when the new contents expose the same link surface (names,
// exports, call spellings, globals) as the old, so only fingerprints moved.
type LinkPatchResponse struct {
	ID         string          `json:"id"`
	Unit       string          `json:"unit"`
	PlanReused bool            `json:"planReused"`
	Plan       LinkPlanSummary `json:"plan"`
}

// LinkSearchRequest — POST /link/{id}/search — runs the component-sharded
// optimal search over the session's current units. Components whose content
// key is already in the shared result cache replay without compiling;
// replay counters are on /stats, never in this body, which stays a pure
// function of the session contents.
type LinkSearchRequest struct {
	MaxSpace uint64 `json:"maxSpace,omitempty"` // per component; 0 selects the server default
	Jobs     int    `json:"jobs,omitempty"`
	DelayMs  int    `json:"delayMs,omitempty"`
}

// LinkComponentStat is one component's deterministic search statistics.
type LinkComponentStat struct {
	Index     int    `json:"index"`
	Funcs     int    `json:"funcs"`
	Sites     int    `json:"sites"`
	Space     uint64 `json:"space"`
	Capped    bool   `json:"capped,omitempty"`
	Inlined   int    `json:"inlined"`
	SizeDelta int    `json:"sizeDelta"`
}

// LinkSearchResponse mirrors inlinesearch's linked report. When any
// component's recursive space exceeds MaxSpace the search does not run:
// Searched is false and only the component spaces are meaningful.
type LinkSearchResponse struct {
	ID             string              `json:"id"`
	Target         string              `json:"target"`
	Searched       bool                `json:"searched"`
	SpaceTotal     uint64              `json:"spaceTotal"`
	NoInlineSize   int                 `json:"noInlineSize,omitempty"`
	OptimalSize    int                 `json:"optimalSize,omitempty"`
	InlinableSites int                 `json:"inlinableSites"`
	InlineSites    []int               `json:"inlineSites,omitempty"`
	ConfigKey      string              `json:"configKey,omitempty"`
	Components     []LinkComponentStat `json:"components"`
}

// LinkTuneRequest — POST /link/{id}/tune — runs the per-component lockstep
// autotuner over the session's current units. Only the size objective is
// cacheable per component; cycle objectives are rejected with 400.
type LinkTuneRequest struct {
	Init      string `json:"init,omitempty"` // clean | os (default)
	Rounds    int    `json:"rounds,omitempty"`
	Objective string `json:"objective,omitempty"` // size (default); others are 400
	Jobs      int    `json:"jobs,omitempty"`
	DelayMs   int    `json:"delayMs,omitempty"`
}

// LinkTuneComponent is one component's deterministic tuning statistics.
type LinkTuneComponent struct {
	Index   int `json:"index"`
	Funcs   int `json:"funcs"`
	Sites   int `json:"sites"`
	Inlined int `json:"inlined"`
}

// LinkTuneResponse reports the session's tuning trace.
type LinkTuneResponse struct {
	ID             string              `json:"id"`
	Target         string              `json:"target"`
	Init           string              `json:"init"`
	InitSize       int                 `json:"initSize"`
	BestSize       int                 `json:"bestSize"`
	FinalSize      int                 `json:"finalSize"`
	InlinableSites int                 `json:"inlinableSites"`
	InlineSites    []int               `json:"inlineSites"`
	ConfigKey      string              `json:"configKey"`
	Rounds         []TuneRound         `json:"rounds"`
	Components     []LinkTuneComponent `json:"components"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the /stats payload: the daemon's observability surface,
// aggregating the shared content cache, the per-module compiler pool, the
// job queue, and per-endpoint request counters.
type StatsResponse struct {
	UptimeSeconds float64    `json:"uptimeSeconds"`
	Draining      bool       `json:"draining"`
	Queue         queueStats `json:"queue"`

	Requests map[string]EndpointStats `json:"requests"`

	// FnCache is the process-wide content-addressed per-function cache
	// shared by every compiler the daemon ever builds.
	FnCache FnCacheStatsJSON `json:"fnCache"`

	// SummaryCache is the process-wide interprocedural summary cache
	// behind /analyze (all zero when the daemon disables it).
	SummaryCache SummaryCacheCounters `json:"summaryCache"`

	// Compilers tracks the per-module compiler pool (LRU over source hash).
	Compilers CompilerPoolStats `json:"compilers"`

	// Aggregates over every compiler ever built (live + retired).
	ConfigCache CacheCounters `json:"configCache"`
	FuncCache   CacheCounters `json:"funcCache"`
	Evaluations int64         `json:"evaluations"`
	Delta       DeltaCounters `json:"delta"`
	Prune       PruneCounters `json:"prune"`

	// CyclePricers tracks the cached baseline profiles behind cycle-aware
	// /tune objectives and aggregates their pricing counters.
	CyclePricers CyclePricerPoolStats `json:"cyclePricers"`

	// LinkSessions tracks the incremental re-link sessions behind /link and
	// aggregates their patch/search/tune counters (live + retired).
	LinkSessions LinkSessionPoolStats `json:"linkSessions"`

	// RelinkCache is the process-wide content-keyed component result cache
	// shared by every link session (all zero when the daemon disables it).
	RelinkCache RelinkCacheCounters `json:"relinkCache"`
}

// LinkSessionPoolStats reports the link-session registry and the
// aggregated link.RelinkStats of every session ever created.
type LinkSessionPoolStats struct {
	Live     int   `json:"live"`
	Created  int64 `json:"created"`
	Replaced int64 `json:"replaced"` // creations that displaced an existing id
	Evicted  int64 `json:"evicted"`

	Patches      int64 `json:"patches"`
	PlanReuses   int64 `json:"planReuses"`
	PlanRebuilds int64 `json:"planRebuilds"`
	Searches     int64 `json:"searches"`
	Tunes        int64 `json:"tunes"`
}

// RelinkCacheCounters mirrors link.ComponentCacheStats for the wire.
type RelinkCacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// CyclePricerPoolStats reports the cycle-pricer pool: how many profiled
// baselines are cached, how often requests reused one, and the aggregated
// compile.CyclePricerStats of every pricer ever built.
type CyclePricerPoolStats struct {
	Live    int   `json:"live"` // profiles currently cached
	Built   int64 `json:"built"`
	Hits    int64 `json:"hits"`
	Evicted int64 `json:"evicted"`

	Repricings      int64 `json:"repricings"`
	FullEvals       int64 `json:"fullEvals"` // whole-module (oracle) evaluations
	ConfigCacheHits int64 `json:"configCacheHits"`
	ReplayEvents    int64 `json:"replayEvents"`
	CostCacheHits   int64 `json:"costCacheHits"`
	CostCacheMisses int64 `json:"costCacheMisses"`
}

// EndpointStats counts one endpoint's traffic.
type EndpointStats struct {
	Count    int64 `json:"count"`
	Errors   int64 `json:"errors"`   // 4xx/5xx except busy
	Busy     int64 `json:"busy"`     // 503 from the queue bound or drain
	Timeouts int64 `json:"timeouts"` // 504 after the request deadline
}

// FnCacheStatsJSON mirrors compile.FnCacheStats for the wire.
type FnCacheStatsJSON struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	DiskHits int64 `json:"diskHits"`
	Loaded   int64 `json:"loaded"`
	Corrupt  int64 `json:"corrupt"`
	Dupes    int64 `json:"dupes"`
	Stored   int64 `json:"stored"`
	Evicted  int64 `json:"evicted"`
	Syncs    int64 `json:"syncs"`
	Entries  int   `json:"entries"`
}

// SummaryCacheCounters mirrors interproc.Stats for the wire.
type SummaryCacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
}

// CompilerPoolStats reports the compiler LRU.
type CompilerPoolStats struct {
	Live    int   `json:"live"`
	Built   int64 `json:"built"`
	Hits    int64 `json:"hits"`
	Evicted int64 `json:"evicted"`
}

// CacheCounters is stats.CacheStats for the wire.
type CacheCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// DeltaCounters is stats.DeltaStats for the wire.
type DeltaCounters struct {
	Evals      int64 `json:"evals"`
	DirtyFuncs int64 `json:"dirtyFuncs"`
}

// PruneCounters is search.PruneStats for the wire.
type PruneCounters struct {
	Enabled    bool  `json:"enabled"`
	Subtrees   int64 `json:"subtrees"`
	MemoHits   int64 `json:"memoHits"`
	MemoMisses int64 `json:"memoMisses"`
	BoundEvals int64 `json:"boundEvals"`
}
