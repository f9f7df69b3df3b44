package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive values (1 when empty, the
// neutral ratio).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports per op.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var r runtimeSample
	get := func(i int) metrics.Value { return samples[i].Value }
	if v := get(0); v.Kind() == metrics.KindFloat64 {
		r.gcCPU = v.Float64()
	}
	if v := get(1); v.Kind() == metrics.KindFloat64 {
		r.totalCPU = v.Float64()
	}
	if v := get(2); v.Kind() == metrics.KindUint64 {
		r.allocBytes = v.Uint64()
	}
	if v := get(3); v.Kind() == metrics.KindUint64 {
		r.allocObjects = v.Uint64()
	}
	return r
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB,
// falling back to the runtime's total mapped memory where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	return 0
}

// cpuTicks returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is absent). Steal is time the hypervisor gave
// this machine's CPUs to others: it inflates wall-clock metrics, so every
// run records its share.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
