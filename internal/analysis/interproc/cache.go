package interproc

import (
	"fmt"

	"optinline/internal/flight"
)

// coreSchemaVersion is hashed into every SCC content key. Bump it when
// the meaning of any cached core field changes, so stale entries from
// other schema generations can never be returned.
const coreSchemaVersion = 1

// Key is the 128-bit content key of one SCC's core summaries: member
// fingerprints plus the per-call binding of callee names to in-SCC
// indices, already-keyed SCCs, or extern (sccKey in summary.go). Equal
// keys imply structurally identical closures, so cached cores are
// interchangeable across modules, runs, and daemon requests.
type Key struct{ Hi, Lo uint64 }

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d entries", s.Hits, s.Misses, s.Entries)
}

// Cache is the corpus-wide summary cache, a flight.Group shared by
// concurrent Analyze calls (daemon requests, parallel harness workers):
// each SCC's cores are computed once and reused by everyone else.
type Cache struct {
	g flight.Group[Key, []Summary]
}

// NewCache returns an empty summary cache safe for concurrent use.
func NewCache() *Cache { return &Cache{} }

// Stats returns a snapshot of the counters. In-flight computations count
// as entries; a waiter satisfied by another goroutine's compute counts
// as a hit.
func (c *Cache) Stats() Stats {
	st := c.g.Stats()
	return Stats{Hits: st.Hits, Misses: st.Misses, Entries: int64(c.g.Len())}
}

// getOrCompute returns the cores cached under key, running compute (and
// publishing its result) on the first request.
func (c *Cache) getOrCompute(key Key, compute func() []Summary) []Summary {
	cores, _, _ := c.g.Do(key, func() ([]Summary, error) { return compute(), nil })
	return cores
}
