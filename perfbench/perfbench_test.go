package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/search"
	"optinline/internal/source"
)

// tiny returns options for a run at test scale: a small corpus, no
// measured seconds, and a handful of ops.
func tiny(name string, seed int64) options {
	return options{workload: name, seed: seed, scale: 0.05, workers: 2, minOps: 12}
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed, finite and
// carries its unit, and that no op failed.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workload {
		t.Run(w.Name, func(t *testing.T) {
			setup, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
			}
			o := tiny(w.Name, defaultSeed)
			res, _, err := measure(o, setup)
			if err != nil {
				t.Fatal(err)
			}
			wantMetrics(t, res, spec.EndToEnd)
			o.trace = true
			res, file, err := measure(o, setup)
			if err != nil {
				t.Fatal(err)
			}
			wantMetrics(t, res, spec.PerLayer)
			if len(file.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func wantMetrics(t *testing.T, res *report, names []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", n.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", n.Name, m.Value)
		case m.Unit != n.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n.Name, m.Unit, n.Unit)
		}
	}
}

// deterministic are the counts that must repeat exactly across two runs of
// one seed.
var deterministic = []string{"compile.evals", "search.evals", "search.pruned_subtrees",
	"compile.cycle_repricings", "link.replay_ratio"}

func counts(t *testing.T, o options) map[string]float64 {
	t.Helper()
	ph, err := runPhase(o, workloads[o.workload], 0, false, true)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, n := range deterministic {
		out[n] = ph.layers[n]
	}
	out["size_vs_os"] = geomean(ph.quality.size)
	return out
}

// TestDeterministicCounts runs the batch workloads twice on one seed: the
// deterministic counters and size_vs_os must repeat exactly. A different
// seed must change the corpus.
func TestDeterministicCounts(t *testing.T) {
	for _, name := range []string{"optimal-corpus", "tune-large"} {
		t.Run(name, func(t *testing.T) {
			a := counts(t, tiny(name, 3))
			b := counts(t, tiny(name, 3))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("counts differ across runs of one seed:\n%v\n%v", a, b)
			}
		})
	}
}

func TestSeedChangesCorpus(t *testing.T) {
	a := specUnits(defaultSeed, 0, 0.05, nil)
	b := specUnits(heldOutSeed, 0, 0.05, nil)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty corpus")
	}
	same := 0
	for i := range a {
		if i < len(b) && string(a[i].text) == string(b[i].text) {
			same++
		}
	}
	if same == len(a) {
		t.Error("a different seed generated the same corpus")
	}
}

// TestCheckerCountsWrongSize feeds the checker a correct result, the same
// result with a wrong expected size, and a configuration that is not the
// one the size was reported for: only the first passes.
func TestCheckerCountsWrongSize(t *testing.T) {
	u := specUnits(defaultSeed, 0, 0.05, nil)[0]
	m, err := source.FromBytes(u.name, u.text)
	if err != nil {
		t.Fatal(err)
	}
	c := compile.New(m, codegen.TargetX86)
	osCfg := heuristic.OsConfig(c.Module(), c.Graph())
	res, ok := search.Optimal(c, search.Options{})
	if !ok {
		t.Fatal("unit not searchable")
	}
	good := result{key: u.name, u: u, cfg: res.Config, size: res.Size, osCfg: osCfg, osSize: c.Size(osCfg)}
	var ck checker
	if _, _, ok := ck.check(good); !ok || ck.failed != 0 {
		t.Fatalf("correct result failed: %v", ck.failures)
	}
	wrong := good
	wrong.size++
	if _, _, ok := ck.check(wrong); ok || ck.failed != 1 {
		t.Errorf("wrong size: ok=%v, %d failures, want 1", ok, ck.failed)
	}
	if c.Size(callgraph.NewConfig()) != res.Size {
		other := good
		other.cfg = callgraph.NewConfig()
		if _, _, ok := ck.check(other); ok || ck.failed != 2 {
			t.Errorf("mismatched configuration: ok=%v, %d failures, want 2", ok, ck.failed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 55},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 50e-9, "a": 30e-9, "b": 25e-9, "c": 5e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
