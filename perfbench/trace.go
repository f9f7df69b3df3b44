package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the enclosing span's ID (0 for an op's root span).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory for the run; they are written out at exit.
// A disabled tracer records nothing and its spans cost one branch.
type tracer struct {
	on     bool
	t0     time.Time
	nextID atomic.Int32
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// opTrace is the span stack of one op. An op runs on one goroutine, so its
// stack needs no lock.
type opTrace struct {
	tr    *tracer
	id    int64
	stack []int32
}

func (tr *tracer) op(id int64) *opTrace { return &opTrace{tr: tr, id: id} }

func noop() {}

// begin opens a span named after the layer call it wraps and returns the
// function that closes it. Calls must nest: close spans in reverse order.
func (o *opTrace) begin(name string) func() {
	if !o.tr.on {
		return noop
	}
	id := o.tr.nextID.Add(1)
	var parent int32
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	o.stack = append(o.stack, id)
	start := time.Since(o.tr.t0).Nanoseconds()
	return func() {
		end := time.Since(o.tr.t0).Nanoseconds()
		o.stack = o.stack[:len(o.stack)-1]
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, span{ID: id, Parent: parent, Op: o.id, Name: name, Start: start, End: end})
		o.tr.mu.Unlock()
	}
}

// do runs f inside a span.
func (o *opTrace) do(name string, f func()) {
	end := o.begin(name)
	f()
	end()
}

// snapshot returns the spans recorded so far, ordered by start.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	out := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes sums each span name's self time in seconds: its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs returns how much of parent's interval the union of the child
// intervals covers.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
