// Package flight is the single-flight cache every memo layer of the
// repository is built on: the first request for a key computes its value,
// concurrent requests for the same key wait for that one computation, and
// later requests are served the stored value.
//
// A failure is never cached and never blocks. When the computation
// returns an error or panics, its entry is withdrawn and every waiter is
// released to retry before the error or panic reaches the computing
// caller, so one bad input cannot wedge a key for everyone else.
//
// A group may be bounded: it then holds at most max ready entries and
// evicts the least recently used one beyond that. An entry whose value is
// still being computed is never evicted.
package flight

import (
	"sync"
	"sync/atomic"
)

type state uint8

const (
	pending state = iota
	ready
	withdrawn
)

type entry[K comparable, V any] struct {
	val   V
	state state
	done  chan struct{} // made by the first waiter; closed when the entry settles
	node  *node[K, V]   // LRU position; nil while pending or when unbounded
}

// node is an element of a bounded group's LRU ring.
type node[K comparable, V any] struct {
	key        K
	e          *entry[K, V]
	prev, next *node[K, V]
}

// Group is a single-flight map from K to V, safe for concurrent use. The
// zero value is an empty, unbounded group. A Group must not be copied
// after first use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	m       map[K]*entry[K, V]
	max     int
	onEvict func(K, V)
	lru     node[K, V] // ring sentinel: lru.next is the least recently used
	lruLen  int

	hits, misses, evicted atomic.Int64
}

// NewLRU returns a group holding at most max ready entries; max <= 0 means
// unbounded. onEvict, when non-nil, is called once for every evicted entry.
// It runs under the group's lock, so it is atomic with respect to Range,
// and it must not call back into the group.
func NewLRU[K comparable, V any](max int, onEvict func(K, V)) *Group[K, V] {
	return &Group[K, V]{max: max, onEvict: onEvict}
}

// Stats are a group's counters. Each request counts once, after its value
// is known: a hit was served a value someone else computed (or Put), a
// miss computed it. Failed computations count as neither.
type Stats struct {
	Hits    int64
	Misses  int64
	Evicted int64
}

// Stats returns the group's counters.
func (g *Group[K, V]) Stats() Stats {
	return Stats{Hits: g.hits.Load(), Misses: g.misses.Load(), Evicted: g.evicted.Load()}
}

// Do returns the value for key, calling fn to compute it if no other
// caller has. hit reports whether the value came from another request.
// Concurrent callers for a key being computed wait for the result. If fn
// returns an error or panics, the entry is withdrawn and the waiters
// retry; the error is returned (or the panic re-raised) to this caller
// only.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, hit bool, err error) {
	for {
		g.mu.Lock()
		e, ok := g.m[key]
		if !ok {
			g.insertLocked(key, &entry[K, V]{})
			g.mu.Unlock()
			v, err = g.run(key, fn)
			return v, false, err
		}
		if e.state == ready {
			g.touchLocked(e)
			g.mu.Unlock()
			g.hits.Add(1)
			return e.val, true, nil
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		g.mu.Unlock()
		<-done
		if e.state == ready {
			g.hits.Add(1)
			return e.val, true, nil
		}
		// Withdrawn: look again, and claim the key if it is still free.
	}
}

// run computes key's value as the owner of its claim and settles the claim
// either way.
func (g *Group[K, V]) run(key K, fn func() (V, error)) (v V, err error) {
	ok := false
	defer func() {
		if !ok {
			g.Withdraw(key)
		}
	}()
	if v, err = fn(); err != nil {
		var zero V
		return zero, err
	}
	ok = true
	g.Fulfill(key, v)
	return v, nil
}

// TryClaim is the non-blocking form of Do for owners that can fulfil a
// key only later. It returns the value on a ready entry (hit), claims an
// absent key for the caller (claimed), and reports neither while another
// caller's computation is in flight. A claim must be settled exactly once,
// by Fulfill or Withdraw.
func (g *Group[K, V]) TryClaim(key K) (v V, hit, claimed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.m[key]
	if !ok {
		g.insertLocked(key, &entry[K, V]{})
		return v, false, true
	}
	if e.state != ready {
		return v, false, false
	}
	g.touchLocked(e)
	g.hits.Add(1)
	return e.val, true, false
}

// Fulfill publishes v for a key the caller claimed and releases its
// waiters.
func (g *Group[K, V]) Fulfill(key K, v V) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.claimedLocked(key)
	e.val = v
	g.settleLocked(e, ready)
	g.pushLocked(key, e)
	g.misses.Add(1)
}

// Withdraw removes a key the caller claimed without a value; its waiters
// retry.
func (g *Group[K, V]) Withdraw(key K) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.claimedLocked(key)
	delete(g.m, key)
	g.settleLocked(e, withdrawn)
}

// Put stores a ready value for key unless the key is already present, and
// reports whether it did. Later requests for the key count as hits.
func (g *Group[K, V]) Put(key K, v V) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.m[key]; ok {
		return false
	}
	e := &entry[K, V]{val: v, state: ready}
	g.insertLocked(key, e)
	g.pushLocked(key, e)
	return true
}

// Range calls fn for every ready entry until fn returns false. fn runs
// under the group's lock, the lock onEvict also runs under, so every value
// is seen exactly once: here, or already passed to onEvict. fn must not
// call back into the group.
func (g *Group[K, V]) Range(fn func(K, V) bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, e := range g.m {
		if e.state == ready && !fn(k, e.val) {
			return
		}
	}
}

// Len returns the number of entries, ready or in flight.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

func (g *Group[K, V]) insertLocked(key K, e *entry[K, V]) {
	if g.m == nil {
		g.m = make(map[K]*entry[K, V])
	}
	g.m[key] = e
}

// claimedLocked returns the pending entry the caller owns. Nothing but its
// owner removes a pending entry, so its absence is a caller bug.
func (g *Group[K, V]) claimedLocked(key K) *entry[K, V] {
	e, ok := g.m[key]
	if !ok || e.state != pending {
		panic("flight: settling a key the caller has not claimed")
	}
	return e
}

func (g *Group[K, V]) settleLocked(e *entry[K, V], s state) {
	e.state = s
	if e.done != nil {
		close(e.done)
	}
}

// pushLocked makes a new ready entry the most recently used one and
// evicts beyond the bound.
func (g *Group[K, V]) pushLocked(key K, e *entry[K, V]) {
	if g.max <= 0 {
		return
	}
	if g.lru.next == nil {
		g.lru.next, g.lru.prev = &g.lru, &g.lru
	}
	e.node = &node[K, V]{key: key, e: e}
	g.linkBackLocked(e.node)
	g.lruLen++
	for g.lruLen > g.max {
		n := g.lru.next
		unlink(n)
		g.lruLen--
		delete(g.m, n.key)
		g.evicted.Add(1)
		if g.onEvict != nil {
			g.onEvict(n.key, n.e.val)
		}
	}
}

func (g *Group[K, V]) touchLocked(e *entry[K, V]) {
	if e.node != nil {
		unlink(e.node)
		g.linkBackLocked(e.node)
	}
}

func (g *Group[K, V]) linkBackLocked(n *node[K, V]) {
	n.prev, n.next = g.lru.prev, &g.lru
	n.prev.next = n
	g.lru.prev = n
}

func unlink[K comparable, V any](n *node[K, V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
}
