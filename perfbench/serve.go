package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
	"optinline/internal/ir"
	"optinline/internal/link"
	"optinline/internal/search"
	"optinline/internal/server"
	"optinline/internal/source"
	"optinline/internal/workload"
)

// serve-mixed: a closed loop of o.workers clients, each sending its next
// request when the previous reply arrives (like build tools), against an
// in-process inlined server on a loopback listener with o.workers job
// tokens. Each client walks SPEC-shaped units at partial scale: half of
// them shared by every client in rotated order, half its own. Every unit
// gets /compile (inline=os), /analyze, /search and /tune (size, every
// fourth one cycle-weighted). Each client also drives its own /link
// session over a small searchable linked profile: a patch and a search
// after every serveLinkEvery units.
const (
	serveScale = 0.25
	// serveVariants corpus variants are shared by all clients, and each
	// client gets as many of its own: enough requests to outlast the
	// deadline.
	serveVariants  = 8
	serveRounds    = 2
	serveLinkEvery = 4
	serveMaxSpace  = optSearchCap
	// serveRotate offsets each client's walk of the shared units: with a
	// short offset every shared unit is computed by one client and served
	// from the server's caches to the others, whatever the run's speed. A
	// long offset makes that share grow with the distance walked.
	serveRotate = 8
)

// serveReq is one prepared request; payloads are marshaled at set-up.
type serveReq struct {
	kind    string // compile, analyze, search, tune, link_create, link_patch, link_search
	key     string // identifies the request across clients
	path    string
	payload []byte
	u       *unit // unit requests: the unit
	tu      int   // link_patch: unit index
	step    int   // link requests: edit step
}

// serveReply is a successful request's reply.
type serveReply struct {
	client int
	req    *serveReq
	body   []byte
}

type serveState struct {
	o       options
	srv     *server.Server
	hs      *http.Server
	base    string
	meter   *cpuMeter
	client  *http.Client
	lists   [][]*serveReq
	tiny    []unit         // the linked profile's units
	edits   [][]*ir.Module // edits[step]: unit contents after step (step 0 = pristine)
	replies []serveReply
	// /stats before and after the timed phase; statsErr is the first
	// failure to fetch them, reported by check.
	stats0, stats1 *server.StatsResponse
	statsErr       error
}

// tinyLinked is a small linked profile whose components stay searchable.
func tinyLinked(name string) workload.LinkedProfile {
	lp, _ := workload.LinkedProfileByName("linked-s")
	lp.Name, lp.TUs, lp.EdgesPerTU, lp.ExtCalls = name, 4, 5, 2
	return lp
}

func setupServe(o options) (state, error) {
	st := &serveState{o: o}
	st.srv = server.New(server.Config{Jobs: o.workers, FnCache: compile.NewFnCache()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}

	st.meter = &cpuMeter{h: st.srv.Handler(), out: make(map[string]chan float64)}
	st.hs = &http.Server{Handler: st.meter}
	go st.hs.Serve(ln)
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.workers}}

	var shared []unit
	for v := 0; v < serveVariants; v++ {
		shared = append(shared, shuffled(specUnits(o.seed, v, o.scale*serveScale, nil), o.seed, v)...)
	}
	uniques := make([][]unit, o.workers)
	for c := range uniques {
		for v := serveVariants * (c + 1); v < serveVariants*(c+2); v++ {
			uniques[c] = append(uniques[c], shuffled(specUnits(o.seed, v, o.scale*serveScale, nil), o.seed, v)...)
		}
	}

	// The link sessions use one linked corpus for every seed: searching its
	// two components is most of a link op's cost, and when it varied with
	// the seed it moved the p90 op by a quarter between seeds.
	bench := workload.GenerateLinked(tinyLinked("linked-tiny"))
	st.edits = [][]*ir.Module{nil}
	cur := make([]*ir.Module, len(bench.Files))
	for i, f := range bench.Files {
		st.tiny = append(st.tiny, renderUnit(f))
		cur[i] = f.Module
	}
	st.edits[0] = append([]*ir.Module(nil), cur...)

	searchPayload, err := json.Marshal(server.LinkSearchRequest{MaxSpace: serveMaxSpace, Jobs: 1})
	if err != nil {
		return nil, err
	}
	for c := 0; c < o.workers; c++ {
		id := linkID(c)
		create, err := st.createPayload(id)
		if err != nil {
			return nil, err
		}
		list := []*serveReq{{kind: "link_create", key: "link_create", path: "/link", payload: create}}
		step := 0
		n := 0
		for i := 0; i < len(shared) || i < len(uniques[c]); i++ {
			var us []*unit
			if i < len(shared) {
				us = append(us, &shared[(i+c*serveRotate)%len(shared)])
			}
			if i < len(uniques[c]) {
				us = append(us, &uniques[c][i])
			}
			for _, u := range us {
				reqs, err := unitRequests(u, n)
				if err != nil {
					return nil, err
				}
				list = append(list, reqs...)
				n++
				if n%serveLinkEvery != 0 {
					continue
				}
				step++
				if step >= len(st.edits) {
					t := (step - 1) % len(bench.Files)
					cur[t] = workload.MutateLinkedTU(bench.Files[t].Module, step)
					st.edits = append(st.edits, append([]*ir.Module(nil), cur...))
				}
				t := (step - 1) % len(bench.Files)
				patch, err := json.Marshal(server.LinkPatchRequest{
					Unit: server.LinkUnit{Name: st.tiny[t].name, Source: st.edits[step][t].String()}, Jobs: 1})
				if err != nil {
					return nil, err
				}
				list = append(list,
					&serveReq{kind: "link_patch", key: fmt.Sprintf("link_patch#%d", step),
						path: "/link/" + id + "/patch", payload: patch, tu: t, step: step},
					&serveReq{kind: "link_search", key: fmt.Sprintf("link_search#%d", step),
						path: "/link/" + id + "/search", payload: searchPayload, step: step})
			}
		}
		st.lists = append(st.lists, list)
	}
	return st, nil
}

// unitRequests prepares the four requests of one unit; n numbers the unit
// in its client's walk (every fourth tune is cycle-weighted).
func unitRequests(u *unit, n int) ([]*serveReq, error) {
	src := string(u.text)
	tune := server.TuneRequest{Name: u.name, Source: src, Rounds: serveRounds, Jobs: 1}
	if n%4 == 3 {
		tune.Objective, tune.Lambda = "weighted", weightedLambda
	}
	bodies := []struct {
		kind string
		body any
	}{
		{"compile", server.CompileRequest{Name: u.name, Source: src, Inline: "os", Jobs: 1}},
		{"analyze", server.AnalyzeRequest{Name: u.name, Source: src, Jobs: 1}},
		{"search", server.SearchRequest{Name: u.name, Source: src, MaxSpace: serveMaxSpace, Jobs: 1}},
		{"tune", tune},
	}
	out := make([]*serveReq, 0, len(bodies))
	for _, b := range bodies {
		payload, err := json.Marshal(b.body)
		if err != nil {
			return nil, err
		}
		out = append(out, &serveReq{kind: b.kind, key: b.kind + " " + u.name, path: "/" + b.kind, payload: payload, u: u})
	}
	return out, nil
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	st.client.CloseIdleConnections()
}

// post sends one request named op and returns the reply and the server's
// CPU time for it.
func (st *serveState) post(op, path string, payload []byte) (int, []byte, float64, error) {
	req, err := http.NewRequest(http.MethodPost, st.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, op)
	cpu := st.meter.expect(op)
	resp, err := st.client.Do(req)
	if err != nil {
		st.meter.forget(op)
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		st.meter.forget(op)
		return 0, nil, 0, err
	}
	return resp.StatusCode, body, <-cpu, nil
}

// opHeader names a request for the cpuMeter.
const opHeader = "Perfbench-Op"

// cpuMeter wraps the server's handler to measure each named request's
// service CPU time. The handler goroutine is locked to its OS thread, so
// the thread's CPU time is the request's own: requests carry Jobs 1, so
// the server computes them inline on that goroutine. The meter reports
// after the handler returns and before the server completes the reply.
type cpuMeter struct {
	h   http.Handler
	mu  sync.Mutex
	out map[string]chan float64
}

func (m *cpuMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := r.Header.Get(opHeader)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	m.h.ServeHTTP(w, r)
	cpu := threadCPU() - c0
	m.mu.Lock()
	ch := m.out[op]
	delete(m.out, op)
	m.mu.Unlock()
	if ch != nil {
		ch <- cpu
	}
}

// expect registers op and returns the channel its CPU time arrives on.
func (m *cpuMeter) expect(op string) chan float64 {
	ch := make(chan float64, 1)
	m.mu.Lock()
	m.out[op] = ch
	m.mu.Unlock()
	return ch
}

// forget drops op after a failed request.
func (m *cpuMeter) forget(op string) {
	m.mu.Lock()
	delete(m.out, op)
	m.mu.Unlock()
}

func (st *serveState) fetchStats() (*server.StatsResponse, error) {
	resp, err := st.client.Get(st.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s server.StatsResponse
	return &s, json.NewDecoder(resp.Body).Decode(&s)
}

// timed runs the closed loop: every client sends its list in order until
// the deadline has passed and it completed its share of the minimum ops.
func (st *serveState) timed(tr *tracer, deadline time.Time) []opRec {
	st.stats0, st.statsErr = st.fetchStats()
	var (
		mu   sync.Mutex
		recs []opRec
		wg   sync.WaitGroup
	)
	perClient := (st.o.minOps + len(st.lists) - 1) / len(st.lists)
	for c, list := range st.lists {
		wg.Add(1)
		go func(c int, list []*serveReq) {
			defer wg.Done()
			for i, r := range list {
				if i >= perClient && time.Now().After(deadline) {
					return
				}
				var rep serveReply
				opID := int64(c)<<32 | int64(i)
				key := fmt.Sprintf("c%d %s", c, r.key)
				var cpu float64
				rec := timeOp(tr, opID, key, r.kind, func(o *opTrace) error {
					end := o.begin("server." + r.kind)
					defer end()
					status, body, opCPU, err := st.post(key, r.path, r.payload)
					cpu = opCPU
					rep = serveReply{client: c, req: r, body: body}
					if err != nil {
						return err
					}
					if status/100 != 2 {
						return fmt.Errorf("%s: status %d: %s", r.key, status, bytes.TrimSpace(body))
					}
					return nil
				})
				// Clients run concurrently: the op's CPU time is the
				// server's, not the process's.
				rec.CPU = cpu
				mu.Lock()
				recs = append(recs, rec)
				if rec.Err == "" {
					st.replies = append(st.replies, rep)
				}
				mu.Unlock()
			}
		}(c, list)
	}
	wg.Wait()
	var err error
	if st.stats1, err = st.fetchStats(); st.statsErr == nil {
		st.statsErr = err
	}
	return recs
}

// linkID names client c's link session.
func linkID(c int) string { return fmt.Sprintf("c%d", c) }

// createPayload opens link session id over the pristine units.
func (st *serveState) createPayload(id string) ([]byte, error) {
	req := server.LinkCreateRequest{ID: id, DupPolicy: "rename", Jobs: 1}
	for _, u := range st.tiny {
		req.Units = append(req.Units, server.LinkUnit{Name: u.name, Source: string(u.text)})
	}
	return json.Marshal(req)
}

func (st *serveState) layers() map[string]float64 {
	out := map[string]float64{}
	s0, s1 := st.stats0, st.stats1
	if st.statsErr != nil {
		return out
	}
	f := func(v int64) float64 { return float64(v) }
	var respBytes float64
	for _, r := range st.replies {
		respBytes += float64(len(r.body))
	}
	fnH, fnM := f(s1.FuncCache.Hits-s0.FuncCache.Hits), f(s1.FuncCache.Misses-s0.FuncCache.Misses)
	cfH, cfM := f(s1.ConfigCache.Hits-s0.ConfigCache.Hits), f(s1.ConfigCache.Misses-s0.ConfigCache.Misses)
	cpH, cpB := f(s1.Compilers.Hits-s0.Compilers.Hits), f(s1.Compilers.Built-s0.Compilers.Built)
	rlH, rlM := f(s1.RelinkCache.Hits-s0.RelinkCache.Hits), f(s1.RelinkCache.Misses-s0.RelinkCache.Misses)
	cy0, cy1 := s0.CyclePricers, s1.CyclePricers
	out["compile.evals"] = f(s1.Evaluations - s0.Evaluations)
	out["compile.fncache_hit_ratio"] = ratio(fnH, fnH+fnM)
	out["compile.config_cache_hit_ratio"] = ratio(cfH, cfH+cfM)
	out["compile.delta_dirty_per_eval"] = ratio(f(s1.Delta.DirtyFuncs-s0.Delta.DirtyFuncs), f(s1.Delta.Evals-s0.Delta.Evals))
	out["compile.cycle_repricings"] = f(cy1.Repricings - cy0.Repricings)
	out["compile.cycle_replay_events"] = f(cy1.ReplayEvents - cy0.ReplayEvents)
	ch, cm := f(cy1.CostCacheHits-cy0.CostCacheHits), f(cy1.CostCacheMisses-cy0.CostCacheMisses)
	out["compile.cycle_cost_hit_ratio"] = ratio(ch, ch+cm)
	mh, mm := f(s1.Prune.MemoHits-s0.Prune.MemoHits), f(s1.Prune.MemoMisses-s0.Prune.MemoMisses)
	out["search.memo_hit_ratio"] = ratio(mh, mh+mm)
	out["search.pruned_subtrees"] = f(s1.Prune.Subtrees - s0.Prune.Subtrees)
	out["search.bound_evals"] = f(s1.Prune.BoundEvals - s0.Prune.BoundEvals)
	ls0, ls1 := s0.LinkSessions, s1.LinkSessions
	out["link.plan_reuse_ratio"] = ratio(f(ls1.PlanReuses-ls0.PlanReuses), f(ls1.Patches-ls0.Patches))
	out["link.replay_ratio"] = ratio(rlH, rlH+rlM)
	out["server.queue_waited_ratio"] = ratio(f(s1.Queue.Waited-s0.Queue.Waited), f(s1.Queue.Granted-s0.Queue.Granted))
	out["server.queue_peak"] = float64(s1.Queue.PeakQueued)
	out["server.compiler_pool_hit_ratio"] = ratio(cpH, cpH+cpB)
	out["server.relink_cache_hit_ratio"] = ratio(rlH, rlH+rlM)
	out["server.resp_bytes_per_op"] = ratio(respBytes, float64(len(st.replies)))
	return out
}

// check compares every reply with the in-process library result and
// requires byte-identical replies to the same request across clients.
func (st *serveState) check() (int, []string, quality) {
	var dup checker
	if st.statsErr != nil {
		dup.fail("GET /stats: %v", st.statsErr)
	}
	first := make(map[string][]byte)
	groups := make(map[string][]serveReply)
	var order []string
	for _, r := range st.replies {
		// Link replies echo the client's session id; compare the rest.
		body := bytes.Replace(r.body, []byte(`"id":"`+linkID(r.client)+`"`), []byte(`"id":"*"`), 1)
		if prev, ok := first[r.req.key]; ok {
			if !bytes.Equal(prev, body) {
				dup.fail("%s: reply differs across clients", r.req.key)
			}
			continue
		}
		first[r.req.key] = body
		g := r.req.key
		if r.req.u != nil {
			g = r.req.u.name
		}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], r)
	}
	fc := compile.NewFnCache()
	jobs := make([]func(*checker), len(order))
	for i, g := range order {
		rs := groups[g]
		jobs[i] = func(ck *checker) { st.checkGroup(ck, fc, rs) }
	}
	ck := runChecks(st.o.workers, jobs)
	ck.merge(&dup)
	return ck.failed, ck.notes(), ck.q
}

// checkGroup checks the replies to one unit's requests on one library
// compiler (on a function cache shared across units, the way the server
// shares its own), or the replies of one link step.
func (st *serveState) checkGroup(ck *checker, fc *compile.FnCache, rs []serveReply) {
	u := rs[0].req.u
	if u == nil {
		for _, r := range rs {
			st.checkLink(ck, fc, r)
		}
		return
	}
	m, err := source.FromBytes(u.name, u.text)
	if err != nil {
		ck.fail("%s: %v", u.name, err)
		return
	}
	c := compile.NewWithOptions(m, codegen.TargetX86, compile.Options{FnCache: fc})
	for _, r := range rs {
		st.checkReply(ck, c, r)
	}
}

// encode renders v exactly as the server writes replies.
func encode(v any) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// checkReply checks one reply to a unit request against library compiler
// c; every checked search and tune feeds the quality ratios.
func (st *serveState) checkReply(ck *checker, c *compile.Compiler, r serveReply) {
	key := fmt.Sprintf("c%d %s", r.client, r.req.key)
	ck.checked++
	g := c.Graph()
	osCfg := heuristic.OsConfig(c.Module(), g)
	var want []byte
	switch r.req.kind {
	case "compile":
		want = encode(server.CompileResponse{Name: r.req.u.name, Target: "x86", Inline: "os",
			Size: c.Size(osCfg), InlinableSites: len(g.Edges), InlinedSites: osCfg.InlineCount(),
			InlineSites: osCfg.InlineSites(), ConfigKey: osCfg.Key()})
	case "search":
		resp := server.SearchResponse{Name: r.req.u.name, Target: "x86",
			NoInlineSize: c.Size(callgraph.NewConfig()), HeuristicSize: c.Size(osCfg), InlinableSites: len(g.Edges)}
		res, searched := search.Optimal(c, search.Options{Workers: 1, MaxSpace: serveMaxSpace})
		resp.Searched, resp.SpaceSize = searched, res.SpaceSize
		if searched {
			resp.OptimalSize, resp.InlineSites, resp.ConfigKey = res.Size, res.Config.InlineSites(), res.Config.Key()
			resp.Agreement = callgraph.Agreement(g.Sites(), res.Config, osCfg)
			ck.q.addSize(res.Size, resp.HeuristicSize)
		}
		want = encode(resp)
	case "tune":
		var req server.TuneRequest
		json.Unmarshal(r.req.payload, &req)
		want = st.expectTune(ck, r.req.u, c, osCfg, req)
	case "analyze":
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.Sites) != len(g.Edges) {
			ck.fail("%s: /analyze reports %d sites, the call graph has %d", key, len(resp.Sites), len(g.Edges))
		}
		return
	}
	if !bytes.Equal(want, r.body) {
		ck.fail("%s: reply differs from the library result:\n got %s\nwant %s", key, clip(r.body), clip(want))
	}
}

func (st *serveState) expectTune(ck *checker, u *unit, c *compile.Compiler, osCfg *callgraph.Config, req server.TuneRequest) []byte {
	opts := autotune.Options{Rounds: req.Rounds, Workers: 1}
	resp := server.TuneResponse{Name: req.Name, Target: "x86", Init: "os"}
	var res autotune.Result
	if req.Objective == "weighted" {
		base, err := c.Build(callgraph.NewConfig())
		if err != nil {
			return nil
		}
		_, prof, err := interp.Collect(base, "entry", []int64{7}, interp.Options{Fuel: collectFuel})
		if err != nil {
			return nil
		}
		pr, err := c.NewCyclePricer(prof, compile.CycleOptions{})
		if err != nil {
			return nil
		}
		res = autotune.TuneWeighted(c, pr, req.Lambda, osCfg, opts)
		resp.Objective, resp.Lambda = "weighted", req.Lambda
		resp.InitCycles, resp.BestCycles = res.InitCycles, res.Cycles
		if cycles, osCycles, ok := ck.check(result{key: req.Name, u: *u, cfg: res.Config,
			size: res.Size, osCfg: osCfg, sample: true}); ok {
			ck.q.addCycles(cycles, osCycles)
		}
	} else {
		res = autotune.Tune(c, osCfg, opts)
		ck.q.addSize(res.Size, res.InitSize)
	}
	resp.InitSize, resp.BestSize = res.InitSize, res.Size
	resp.InlineSites, resp.ConfigKey = res.Config.InlineSites(), res.Config.Key()
	for _, rt := range res.Rounds {
		resp.Rounds = append(resp.Rounds, server.TuneRound{Round: rt.Round, Size: rt.Size, Cycles: rt.Cycles,
			Inlined: rt.Inlined, NotInlined: rt.NotInlined, Toggles: rt.Toggles})
	}
	return encode(resp)
}

// checkLink checks a /link reply: a search must match a cold link and
// search of the step's unit contents.
func (st *serveState) checkLink(ck *checker, fc *compile.FnCache, r serveReply) {
	key := fmt.Sprintf("c%d %s", r.client, r.req.key)
	ck.checked++
	switch r.req.kind {
	case "link_create":
		var resp server.LinkCreateResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || resp.Plan.TUs != len(st.tiny) {
			ck.fail("%s: bad create reply %s", key, clip(r.body))
		}
		return
	case "link_patch":
		var resp server.LinkPatchResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || resp.Unit != st.tiny[r.req.tu].name {
			ck.fail("%s: bad patch reply %s", key, clip(r.body))
		}
		return
	}
	var resp server.LinkSearchResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		ck.fail("%s: bad search reply: %v", key, err)
		return
	}
	mods := st.edits[r.req.step]
	tus := make([]link.TU, len(mods))
	for i, m := range mods {
		tus[i] = link.ModuleTU(st.tiny[i].name, m)
	}
	l, err := link.New(tus, link.Options{DupExported: link.DupExportedRename})
	if err != nil {
		ck.fail("%s: cold link: %v", key, err)
		return
	}
	res, ok, err := l.OptimalSearch(link.SearchOptions{
		ShardOptions: link.ShardOptions{Target: codegen.TargetX86, Compile: compile.Options{FnCache: fc}, Workers: 1},
		MaxSpace:     serveMaxSpace,
	})
	if err != nil {
		ck.fail("%s: cold search: %v", key, err)
		return
	}
	if resp.Searched != ok || (ok && (resp.OptimalSize != res.Size || resp.ConfigKey != res.Config.Key())) {
		ck.fail("%s: session search (searched=%v size=%d) differs from a cold link (searched=%v size=%d)",
			key, resp.Searched, resp.OptimalSize, ok, res.Size)
	}
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
