// Command perfbench is the repository benchmark. It generates a seeded
// workload, drives the optimizer's layers from outside through their public
// functions and stats getters, checks every result, and prints the metrics
// as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload optimal-corpus|tune-large|serve-mixed \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is untraced and prints the end-to-end metrics,
// whose times are CPU times read from the Linux CPU clocks (see
// WORKLOADS.md for why). With --trace 1 it runs the workload twice from a
// fresh set-up, first untraced and then traced, each for half of
// --seconds, and prints the per-layer metrics of the traced half plus the
// tracing overhead (traced over untraced op time on the ops both halves
// completed). Every run writes a host stamp and its trace to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed whose corpus uses the generators' plain profile
// names; heldOutSeed is kept out of tuning for claims.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// minOps is the op count every timed phase reaches even past its deadline,
// so p90 has at least ten samples beyond it and the deterministic counters
// are taken over the same prefix of ops in every run.
const minOps = 100

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// scale shrinks every generated corpus, workers is the worker budget
	// (GOMAXPROCS when 0) and minOps overrides minOps: tests run tiny.
	scale   float64
	workers int
	minOps  int
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "optimal-corpus | tune-large | serve-mixed")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the host stamp and trace files")
	flag.Parse()
	o.trace = traceFlag == 1
	o.scale = 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) error {
	setup, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want optimal-corpus, tune-large or serve-mixed)", o.workload)
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.minOps <= 0 {
		o.minOps = minOps
	}
	stamp := hostStamp(o)
	res, file, err := measure(o, setup)
	if err != nil {
		return err
	}
	file.Host = stamp
	if err := writeTrace(o, file); err != nil {
		return err
	}
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", line)
	fmt.Printf("ops %d attempted, %d failed, %d samples in percentiles, host steal %.3f\n",
		res.Attempted, res.Failed, file.Samples, file.StealShare)
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceFile is what a run writes to --out: the host stamp, every op, and
// (traced runs) every span.
type traceFile struct {
	Host    stamp `json:"host"`
	Samples int   `json:"samples"`
	// StealShare is the host's CPU steal share during the (traced)
	// timed phase.
	StealShare float64  `json:"stealShare"`
	Ops        []opRec  `json:"ops"`
	Spans      []span   `json:"spans"`
	Result     *report  `json:"result"`
	Notes      []string `json:"notes,omitempty"`
}

func writeTrace(o options, f traceFile) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, btoi(o.trace))
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// measure runs the workload untraced (and, with --trace 1, traced) and
// assembles the printed result.
func measure(o options, setup setupFunc) (*report, traceFile, error) {
	if !o.trace {
		ph, err := runPhase(o, setup, o.seconds, false, true)
		if err != nil {
			return nil, traceFile{}, err
		}
		res := &report{
			Correct:   ph.failed == 0,
			Attempted: len(ph.ops),
			Failed:    ph.failed,
			Metrics:   endToEnd(ph),
		}
		return res, traceFile{Samples: len(ph.ops), StealShare: ph.stealShare, Ops: ph.ops, Result: res, Notes: ph.notes}, nil
	}
	// The untraced half is only the baseline for the overhead, so only the
	// traced half's results are checked.
	plain, err := runPhase(o, setup, o.seconds/2, false, false)
	if err != nil {
		return nil, traceFile{}, err
	}
	traced, err := runPhase(o, setup, o.seconds/2, true, true)
	if err != nil {
		return nil, traceFile{}, err
	}
	ms := perLayer(traced)
	ms["trace.overhead_ratio"] = metric{tracingOverhead(plain.ops, traced.ops), "ratio"}
	failed := plain.failed + traced.failed
	res := &report{
		Correct:   failed == 0,
		Attempted: len(plain.ops) + len(traced.ops),
		Failed:    failed,
		Metrics:   ms,
	}
	return res, traceFile{Samples: len(traced.ops), StealShare: traced.stealShare, Ops: traced.ops, Spans: traced.spans, Result: res,
		Notes: append(plain.notes, traced.notes...)}, nil
}

// tracingOverhead compares the summed latency of the ops both phases
// completed (matched by op key): traced over untraced, minus one.
func tracingOverhead(plain, traced []opRec) float64 {
	base := make(map[string]float64, len(plain))
	for _, op := range plain {
		base[op.Key] = op.Seconds
	}
	var a, b float64
	for _, op := range traced {
		if s, ok := base[op.Key]; ok {
			a += s
			b += op.Seconds
		}
	}
	if a == 0 {
		return 0
	}
	return b/a - 1
}

// runPhase sets the workload up setupReps times, runs the timed phase on
// the last set-up and, when check is set, checks its results.
func runPhase(o options, setup setupFunc, seconds float64, traced, check bool) (*phase, error) {
	setups := make([]float64, 0, setupReps)
	var st state
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		c0 := processCPU()
		s, err := setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, processCPU()-c0)
		st = s
	}
	defer st.close()
	tr := newTracer(traced)
	ph := &phase{setupS: quantile(setups, 0.5)}
	runtime.GC()
	r0 := readRuntime()
	steal0, total0 := cpuTicks()
	t0, c0 := time.Now(), processCPU()
	ph.ops = st.timed(tr, t0.Add(time.Duration(seconds*float64(time.Second))))
	ph.elapsed = time.Since(t0).Seconds()
	ph.cpu = processCPU() - c0
	steal1, total1 := cpuTicks()
	ph.stealShare = ratio(steal1-steal0, total1-total0)
	r1 := readRuntime()
	ph.gcShare = ratio(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU)
	ph.allocBytes = float64(r1.allocBytes - r0.allocBytes)
	ph.allocObjects = float64(r1.allocObjects - r0.allocObjects)
	ph.rssMB = peakRSSMB()
	ph.spans = tr.snapshot()
	ph.layers = st.layers()
	if check {
		t0 := time.Now()
		ph.failed, ph.notes, ph.quality = st.check()
		ph.notes = append(ph.notes, fmt.Sprintf("checks took %.1fs", time.Since(t0).Seconds()))
	}
	for _, op := range ph.ops {
		if op.Err != "" {
			ph.failed++
		}
	}
	return ph, nil
}

// setupReps is how many times a phase sets up: setup_s is the median of
// their CPU times, and the last set-up is the one measured.
const setupReps = 3

// opRec is one completed op of a timed phase: its wall-clock latency and
// the CPU time it used.
type opRec struct {
	Key     string  `json:"key"`
	Kind    string  `json:"kind"`
	Start   float64 `json:"start"`
	Seconds float64 `json:"seconds"`
	CPU     float64 `json:"cpu"`
	Err     string  `json:"err,omitempty"`
}

// timeOp runs f as op id under a root span named after the op kind and
// records its latency and the process CPU time it used (ops that run
// concurrently with others set CPU themselves).
func timeOp(tr *tracer, id int64, key, kind string, f func(o *opTrace) error) opRec {
	o := tr.op(id)
	t0, c0 := time.Now(), processCPU()
	end := o.begin("op." + kind)
	err := f(o)
	end()
	rec := opRec{Key: key, Kind: kind, Start: t0.Sub(tr.t0).Seconds(),
		Seconds: time.Since(t0).Seconds(), CPU: processCPU() - c0}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}
