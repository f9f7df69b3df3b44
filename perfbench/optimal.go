package main

import (
	"fmt"
	"math"
	"time"

	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/search"
)

// optimal-corpus: every op searches one translation unit of the seeded
// SPEC-shaped corpus for its optimal inlining configuration, the way the
// paper's exhaustive study does: parse, build the compiler on one shared
// function cache, size the -Os heuristic, count the recursive search space
// (the Table 1 / Fig. 7 accounting) and run the exact search.
const (
	// optCountCap bounds the search-space count; optSearchCap skips the
	// exact search of units whose recursive space is larger.
	optCountCap  = 1 << 12
	optSearchCap = 1 << 10
	// optSecondsPerVariant sizes the pre-generated stream: one corpus
	// variant per this many measured seconds, plus one, so the stream
	// outlasts the deadline with room for a faster program.
	optSecondsPerVariant = 2
)

type optimalState struct {
	o       options
	units   []unit
	fc      *compile.FnCache
	results []result // searched units
	// counters accumulates per-op layer counters over the first o.minOps
	// ops, so they repeat exactly across runs of one seed.
	counters counters
	bytes    float64
}

func setupOptimal(o options) (state, error) {
	st := &optimalState{o: o, fc: compile.NewFnCache()}
	variants := int(math.Ceil(o.seconds/optSecondsPerVariant)) + 1
	for v := 0; v < variants; v++ {
		st.units = append(st.units, shuffled(specUnits(o.seed, v, o.scale, nil), o.seed, v)...)
	}
	if len(st.units) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	return st, nil
}

func (st *optimalState) close() {}

func (st *optimalState) timed(tr *tracer, deadline time.Time) []opRec {
	var recs []opRec
	for i, u := range st.units {
		if i >= st.o.minOps && time.Now().After(deadline) {
			break
		}
		recs = append(recs, timeOp(tr, int64(i), u.name, "optimal", func(o *opTrace) error {
			r, c, res, searched, err := st.searchUnit(o, u)
			if err != nil {
				return err
			}
			if searched {
				r.sample = i < st.o.minOps
				st.results = append(st.results, r)
			}
			st.bytes += float64(len(u.text))
			if i < st.o.minOps {
				st.counters.addCompiler(c)
				st.counters.addSearch(res)
			}
			return nil
		}))
	}
	return recs
}

// searchUnit is one optimal-corpus op.
func (st *optimalState) searchUnit(o *opTrace, u unit) (r result, c *compile.Compiler, res search.Result, searched bool, err error) {
	m, err := parse(o, u)
	if err != nil {
		return r, nil, res, false, err
	}
	c = newCompiler(o, m, st.fc)
	g := c.Graph()
	r = result{key: u.name, u: u}
	o.do("heuristic.os_config", func() { r.osCfg = heuristic.OsConfig(c.Module(), g) })
	o.do("compile.size", func() { r.osSize = c.Size(r.osCfg) })
	o.do("search.space_count", func() { search.RecursiveSpaceSize(g, optCountCap) })
	o.do("search.optimal", func() {
		res, searched = search.Optimal(c, search.Options{Workers: st.o.workers, MaxSpace: optSearchCap})
	})
	r.cfg, r.size = res.Config, res.Size
	return r, c, res, searched, nil
}

func (st *optimalState) layers() map[string]float64 {
	out := st.counters.metrics()
	out["source.bytes"] = st.bytes
	return out
}

func (st *optimalState) check() (int, []string, quality) {
	jobs := make([]func(*checker), len(st.results))
	for i, r := range st.results {
		jobs[i] = func(ck *checker) {
			if cycles, osCycles, ok := ck.check(r); ok && r.sample {
				ck.q.addSize(r.size, r.osSize)
				ck.q.addCycles(cycles, osCycles)
			}
		}
	}
	ck := runChecks(st.o.workers, jobs)
	return ck.failed, ck.notes(), ck.q
}
