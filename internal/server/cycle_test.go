package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"optinline/internal/autotune"
	"optinline/internal/callgraph"
	"optinline/internal/compile"
	"optinline/internal/heuristic"
	"optinline/internal/interp"
)

// libPricer mirrors the server's pricer construction on a standalone
// compiler: profile the no-inline baseline at the request defaults.
func libPricer(t *testing.T, comp *compile.Compiler) *compile.CyclePricer {
	t.Helper()
	built, err := comp.Build(callgraph.NewConfig())
	if err != nil {
		t.Fatalf("build baseline: %v", err)
	}
	_, prof, err := interp.Collect(built, "entry", []int64{7}, interp.Options{Fuel: 20_000_000})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	p, err := comp.NewCyclePricer(prof, compile.CycleOptions{})
	if err != nil {
		t.Fatalf("pricer: %v", err)
	}
	return p
}

// TestTuneWeightedObjectiveMatchesLibrary compares /tune with a weighted
// objective against a direct TuneWeighted session over the same profile.
func TestTuneWeightedObjectiveMatchesLibrary(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 2})
	comp := libCompiler(t, f)
	pricer := libPricer(t, comp)
	want := autotune.TuneWeighted(comp, pricer, 0.1, nil, autotune.Options{Rounds: 3, Workers: 1})

	status, body := post(t, ts.URL+"/tune", TuneRequest{
		Name: f.name, Source: f.src, Init: "clean", Rounds: 3,
		Objective: "weighted", Lambda: 0.1,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Objective != "weighted" || resp.Lambda != 0.1 {
		t.Errorf("echoed objective %q lambda %v", resp.Objective, resp.Lambda)
	}
	if resp.InitSize != want.InitSize || resp.InitCycles != want.InitCycles {
		t.Errorf("init (%d,%d), library (%d,%d)", resp.InitSize, resp.InitCycles, want.InitSize, want.InitCycles)
	}
	if resp.BestSize != want.Size || resp.BestCycles != want.Cycles {
		t.Errorf("best (%d,%d), library (%d,%d)", resp.BestSize, resp.BestCycles, want.Size, want.Cycles)
	}
	if resp.ConfigKey != want.Config.Key() {
		t.Errorf("configKey %q, library %q", resp.ConfigKey, want.Config.Key())
	}
	if len(resp.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, library %d", len(resp.Rounds), len(want.Rounds))
	}
	for i, rt := range want.Rounds {
		got := resp.Rounds[i]
		if got.Size != rt.Size || got.Cycles != rt.Cycles || got.Toggles != rt.Toggles {
			t.Errorf("round %d: %+v, library %+v", i, got, rt)
		}
	}
	if resp.BestCycles <= 0 {
		t.Errorf("BestCycles = %d, want > 0", resp.BestCycles)
	}
}

// TestTuneCycleObjectiveDeltaOracle checks one cycles-only /tune session,
// priced incrementally by the daemon's pooled pricer, against the library
// tuner on a delta-off compiler (the -no-delta whole-module oracle): every
// reported field must agree, and /stats must show the one pooled pricer
// repricing incrementally.
func TestTuneCycleObjectiveDeltaOracle(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 2})
	comp := libCompiler(t, f)
	comp.SetDelta(false)
	pricer := libPricer(t, comp)
	want := autotune.TuneCycles(comp, pricer, heuristic.OsConfig(comp.Module(), comp.Graph()),
		autotune.Options{Rounds: 3, Workers: 1})
	if ps := pricer.Stats(); ps.Repricings != 0 || ps.FullEvals == 0 {
		t.Fatalf("library oracle priced incrementally: %+v", ps)
	}

	req := TuneRequest{Name: f.name, Source: f.src, Init: "os", Rounds: 3, Objective: "cycles"}
	status, body := post(t, ts.URL+"/tune", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.InitSize != want.InitSize || resp.InitCycles != want.InitCycles {
		t.Errorf("init (%d,%d), oracle (%d,%d)", resp.InitSize, resp.InitCycles, want.InitSize, want.InitCycles)
	}
	if resp.BestSize != want.Size || resp.BestCycles != want.Cycles {
		t.Errorf("best (%d,%d), oracle (%d,%d)", resp.BestSize, resp.BestCycles, want.Size, want.Cycles)
	}
	if resp.ConfigKey != want.Config.Key() {
		t.Errorf("configKey %q, oracle %q", resp.ConfigKey, want.Config.Key())
	}
	if len(resp.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, oracle %d", len(resp.Rounds), len(want.Rounds))
	}
	for i, rt := range want.Rounds {
		got := resp.Rounds[i]
		if got.Round != rt.Round || got.Size != rt.Size || got.Cycles != rt.Cycles || got.Inlined != rt.Inlined ||
			got.NotInlined != rt.NotInlined || got.Toggles != rt.Toggles {
			t.Errorf("round %d: %+v, oracle %+v", i, got, rt)
		}
	}

	cp := getStats(t, ts.URL).CyclePricers
	if cp.Built != 1 || cp.Live != 1 {
		t.Errorf("pricer pool built=%d live=%d, want 1/1", cp.Built, cp.Live)
	}
	if cp.Repricings == 0 || cp.FullEvals != 0 {
		t.Errorf("daemon pricer repricings=%d full evals=%d, want incremental only", cp.Repricings, cp.FullEvals)
	}
	if cp.ReplayEvents == 0 {
		t.Errorf("no i-cache replay events recorded")
	}

	// Replaying the request reuses its pooled profile.
	status, again := post(t, ts.URL+"/tune", req)
	if status != http.StatusOK {
		t.Fatalf("replay status %d: %s", status, again)
	}
	if !bytes.Equal(again, body) {
		t.Errorf("replay body differs from first run")
	}
	st := getStats(t, ts.URL)
	if st.CyclePricers.Hits == 0 {
		t.Errorf("replay did not hit the pricer pool (hits=%d)", st.CyclePricers.Hits)
	}
	if st.CyclePricers.Built != 1 {
		t.Errorf("replay built a new pricer (built=%d)", st.CyclePricers.Built)
	}
}

// TestTuneObjectiveErrors walks the cycle-objective rejection matrix.
func TestTuneObjectiveErrors(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1})

	cases := []struct {
		name string
		req  TuneRequest
		code int
	}{
		{"unknown objective", TuneRequest{Name: f.name, Source: f.src, Objective: "latency"}, http.StatusBadRequest},
		{"negative lambda", TuneRequest{Name: f.name, Source: f.src, Objective: "weighted", Lambda: -1}, http.StatusBadRequest},
		{"missing entry", TuneRequest{Name: f.name, Source: f.src, Objective: "cycles", Entry: "no_such_fn"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/tune", tc.req)
		if status != tc.code {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.code, body)
		}
	}
}

// TestTuneSizeResponseHasNoCycleFields pins the legacy response shape:
// size sessions must not grow objective/cycle keys on the wire.
func TestTuneSizeResponseHasNoCycleFields(t *testing.T) {
	f := exampleSources(t)[0]
	_, ts := newTestServer(t, Config{Jobs: 1})
	status, body := post(t, ts.URL+"/tune", TuneRequest{Name: f.name, Source: f.src, Rounds: 2})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	for _, key := range []string{"objective", "lambda", "initCycles", "bestCycles", "cycles"} {
		if bytes.Contains(body, []byte(`"`+key+`"`)) {
			t.Errorf("size-session body leaks %q: %s", key, body)
		}
	}
}
