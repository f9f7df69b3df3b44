package compile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"optinline/internal/flight"
	"optinline/internal/ir"
)

// This file implements the content-addressed per-function compile cache
// behind the per-closure memo (memo.go). Rather than an identity valid only
// within one Compiler (module, function name, inline-closure site list),
// the FnCache keys an entry by the *content* of the compilation: the structural fingerprints
// of the closure's members, the canonicalized site labels inside it, and
// the pipeline version. Two closures with equal content keys produce
// byte-identical post-inline functions and therefore equal sizes, no matter
// which module, corpus file, configuration, or process run they came from.
// That is what makes one cache shareable across configurations (free),
// across corpus files in one inlinebench run (Options.FnCache), across
// runs (OpenFnCache), and across the clients of one long-running inlined
// daemon (internal/server shares a single process-wide cache).
//
// Why equal keys imply equal sizes — the full argument lives with the key
// derivation in memo.go (closureKey); the short form:
//
//   - ir.Function.Fingerprint covers everything inline.Apply and the opt
//     pipeline can observe of a function except site IDs and print names;
//   - codegen sizes are name-independent (a call costs callBase +
//     callArg·args regardless of the callee's name; global ops cost a flat
//     globalOp), so member and global *names* need not match across files —
//     but the *binding* of member names to member bodies does decide what
//     inlines where, and a member's own name is absent from its
//     fingerprint, so the key streams canonical name indices binding each
//     member to the callee references that resolve to it;
//   - site IDs only matter through equality (recursion trails, label
//     lookup), so the key maps them to canonical first-occurrence indices,
//     preserving exactly the equivalence classes;
//   - the key-schema and pipeline versions pin the key derivation and the
//     clone→inline→opt→codegen semantics, and the target byte pins the
//     size model.
//
// The in-memory cache is a flight.Group, like both memo levels: concurrent
// compilers sharing one FnCache that race on a new key perform one
// compilation. The optional on-disk store is an append-only log of
// fixed-size checksummed records: every newly computed entry is appended
// under a store mutex the moment it is ready (with a periodic fsync), so a
// long-running process persists incrementally instead of rewriting the
// whole file at exit. Records carry their own checksum and the log heals
// its tail at open, so corruption of any form — torn final record, bit
// rot, duplicate keys from a crash-and-reappend cycle — degrades to a
// counted miss (or a counted duplicate), never a wrong size. Compact
// rewrites the log as a sorted, deduplicated canonical store; the daemon
// exposes it offline as `inlined -compact`.
//
// The store assumes a single writing process per directory (the daemon, or
// one batch CLI run); concurrent readers are safe.

// PipelineVersion identifies the semantics of the clone → inline → opt →
// codegen pipeline whose results the per-function cache stores. Bump it
// whenever a pass, the inliner, or a codegen cost model changes measured
// sizes.
const PipelineVersion = 1

// fnKeyVersion identifies the key derivation itself (closureKey in
// memo.go). Bump it whenever the key's input stream changes shape — v2
// added the member-name binding indices — so keys from an older derivation
// can never alias a new one.
const fnKeyVersion = 2

// fnCacheSchema is the string form of the key schema. It is hashed into
// every content key AND written into the persistence header (fnCacheHeader
// below), so bumping either version both invalidates previously cached
// sizes and drops stale on-disk stores wholesale at open — old records
// could never match a new key anyway, and dropping them keeps the store
// from accumulating unreachable entries across version bumps.
var fnCacheSchema = fmt.Sprintf("optinline/fncache/key=%d/pipeline=%d", fnKeyVersion, PipelineVersion)

// fnCacheMagic is the on-disk format name plus format version. Distinct
// from the schema versions above: a format bump changes how records are
// laid out, a schema bump changes what they mean. v2 turned the store from
// a rewrite-at-exit snapshot into an append log (same record layout; what
// changed is that duplicate keys are now legitimate, so readers dedup).
const fnCacheMagic = "OPTFNC2\n"

// fnCacheHeader is the full store header: the format magic followed by the
// key schema line. A store whose header does not match byte-for-byte is
// reset at open (degrading to misses), which is how pipeline and
// key-schema bumps garbage-collect stale stores.
var fnCacheHeader = fnCacheMagic + fnCacheSchema + "\n"

// fnCacheFile is the store's file name inside the cache directory.
const fnCacheFile = "fncache-v2.log"

// fnRecordSize is the fixed on-disk record: keyHi, keyLo, size, checksum —
// four little-endian 64-bit words.
const fnRecordSize = 32

// defaultFsyncEvery is how many appended records may accumulate between
// fsyncs when the opener does not choose; Save and Close always sync.
// A crash loses at most this many freshly computed sizes — they are only
// cache entries, recomputed on the next miss.
const defaultFsyncEvery = 64

// FnKey is a 128-bit content key of one function compilation (see
// closureKey in memo.go for the derivation). 64 bits would make accidental
// birthday collisions — which silently return a wrong size — plausible at
// the multi-million-entry scale big corpus runs reach; 128 bits makes them
// ignorable.
type FnKey struct{ Hi, Lo uint64 }

// fnSize is a cached function size; fromDisk marks entries loaded from
// the store, whose hits are also counted as disk hits.
type fnSize struct {
	size     int
	fromDisk bool
}

// FnCacheStats reports the content cache's counters.
type FnCacheStats struct {
	Hits     int64 // lookups served by an already-present entry
	Misses   int64 // lookups that had to compile
	DiskHits int64 // subset of Hits served by entries loaded from the cache dir
	Loaded   int64 // persisted entries accepted at open
	Corrupt  int64 // persisted entries (or the header) rejected at open
	Dupes    int64 // duplicate-key records skipped at open — crash-replayed appends
	Stored   int64 // entries newly computed this run and appended to the log
	Evicted  int64 // in-memory entries dropped by the LRU bound
	Syncs    int64 // fsyncs issued for the append log
}

func (s FnCacheStats) String() string {
	total := s.Hits + s.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(s.Hits) / float64(total)
	}
	out := fmt.Sprintf("%d hits / %d misses (%.1f%% hit rate)", s.Hits, s.Misses, pct)
	if s.Loaded > 0 || s.DiskHits > 0 || s.Corrupt > 0 || s.Stored > 0 || s.Dupes > 0 {
		out += fmt.Sprintf(", disk: %d loaded, %d hits, %d corrupt, %d stored",
			s.Loaded, s.DiskHits, s.Corrupt, s.Stored)
		if s.Dupes > 0 {
			out += fmt.Sprintf(", %d dupes", s.Dupes)
		}
	}
	if s.Evicted > 0 {
		out += fmt.Sprintf(", %d evicted", s.Evicted)
	}
	return out
}

// Add accumulates counters across compilers or harness files.
func (s *FnCacheStats) Add(o FnCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.DiskHits += o.DiskHits
	s.Loaded += o.Loaded
	s.Corrupt += o.Corrupt
	s.Dupes += o.Dupes
	s.Stored += o.Stored
	s.Evicted += o.Evicted
	s.Syncs += o.Syncs
}

// FnCacheConfig bounds and tunes a persistent cache; the zero value means
// "in-memory, unbounded" and is what NewFnCache uses.
type FnCacheConfig struct {
	// Dir is the persistence directory; "" keeps the cache in memory only.
	Dir string
	// MaxEntries bounds the number of in-memory entries; 0 is unbounded.
	// When the bound is hit the least-recently-used ready entry is dropped
	// (in-flight computations are pinned). Evicted entries that were ever
	// appended remain in the log until Compact, so re-learning them after
	// a restart is free; within one run they recompute on next use.
	MaxEntries int
	// FsyncEvery fsyncs the append log after this many appended records;
	// 0 selects defaultFsyncEvery, negative disables periodic fsync
	// (Save/Close still sync).
	FsyncEvery int
}

// FnCache is a content-addressed, single-flight map from FnKey to encoded
// function size, safe for concurrent use by any number of Compilers. The
// zero value is not usable; construct with NewFnCache or OpenFnCache.
type FnCache struct {
	entries *flight.Group[FnKey, fnSize]

	// Append-log store. storeMu serializes appends, syncs, and compaction;
	// it is never held together with the group's lock (Compact snapshots
	// the group first, then writes under storeMu).
	storeMu    sync.Mutex
	dir        string   // persistence directory; "" = in-memory only
	file       *os.File // open append handle; nil if in-memory or failed
	fsyncEvery int
	sinceSync  int
	healNeeded bool // open saw corruption; Save compacts to scrub it

	diskHits atomic.Int64
	loaded   int64 // written at open, read-only afterwards
	corrupt  int64
	dupes    int64
	stored   atomic.Int64
	syncs    atomic.Int64
}

// NewFnCache returns an empty in-memory cache.
func NewFnCache() *FnCache {
	fc, _ := OpenFnCacheWith(FnCacheConfig{})
	return fc
}

// OpenFnCache returns a cache backed by dir: previously appended entries
// are loaded immediately and newly computed ones are appended back as they
// are produced. Equivalent to OpenFnCacheWith(FnCacheConfig{Dir: dir}).
func OpenFnCache(dir string) (*FnCache, error) {
	return OpenFnCacheWith(FnCacheConfig{Dir: dir})
}

// OpenFnCacheWith opens a cache under cfg. A missing directory or store
// file starts empty (the directory is created on demand). Corrupt or
// truncated content degrades entry-by-entry to misses — one stderr line
// summarizes anything rejected — and is never returned as a size; a torn
// tail (a crash mid-append) is truncated away so subsequent appends land
// on a record boundary. An unusable store file (permissions, bad header on
// a read-only filesystem) degrades to an in-memory cache rather than an
// error: persistence is an optimization, never a correctness requirement.
func OpenFnCacheWith(cfg FnCacheConfig) (*FnCache, error) {
	fc := &FnCache{
		entries:    flight.NewLRU[FnKey, fnSize](cfg.MaxEntries, nil),
		fsyncEvery: cfg.FsyncEvery,
	}
	if fc.fsyncEvery == 0 {
		fc.fsyncEvery = defaultFsyncEvery
	}
	if cfg.Dir == "" {
		return fc, nil
	}
	fc.dir = cfg.Dir
	if err := os.MkdirAll(fc.dir, 0o755); err != nil {
		return nil, fmt.Errorf("fncache: %w", err)
	}
	path := filepath.Join(fc.dir, fnCacheFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fncache: open %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fncache: read %s: %w", path, err)
	}
	fc.file = f
	keep := fc.load(data, path)
	err = fc.resetLogTo(keep, data)
	if err == nil {
		// Position the handle at the healed end of the log; every later
		// write is an append at a record boundary.
		_, err = fc.file.Seek(0, io.SeekEnd)
	}
	if err != nil {
		// Healing failed (e.g. read-only file); keep what we loaded but
		// stop persisting rather than appending at a broken offset.
		fmt.Fprintf(os.Stderr, "fncache: %s: %v; continuing in-memory\n", path, err)
		fc.file.Close()
		fc.file = nil
	}
	return fc, nil
}

// load decodes a store file's bytes, accepting every intact record and
// counting (then reporting once) everything else. It returns the number of
// leading bytes the on-disk log should be truncated to so appends land on
// a record boundary: the full length when the file is intact, the last
// complete-record boundary when the tail is torn, or 0 when the header is
// unusable and the log must restart.
func (fc *FnCache) load(data []byte, path string) (keep int64) {
	if len(data) == 0 {
		// A fresh (or emptied) store: not corruption, just empty.
		return 0
	}
	if len(data) < len(fnCacheHeader) || string(data[:len(fnCacheHeader)]) != fnCacheHeader {
		fc.corrupt = 1
		if len(data) >= len(fnCacheMagic) && string(data[:len(fnCacheMagic)]) == fnCacheMagic {
			fmt.Fprintf(os.Stderr, "fncache: %s: stale key schema or pipeline version; resetting store\n", path)
		} else {
			fmt.Fprintf(os.Stderr, "fncache: %s: unrecognized header; resetting store\n", path)
		}
		return 0
	}
	body := data[len(fnCacheHeader):]
	keep = int64(len(fnCacheHeader))
	for len(body) > 0 {
		if len(body) < fnRecordSize {
			fc.corrupt++ // torn final record (crash mid-append)
			break
		}
		rec := body[:fnRecordSize]
		body = body[fnRecordSize:]
		keep += fnRecordSize
		hi := binary.LittleEndian.Uint64(rec[0:8])
		lo := binary.LittleEndian.Uint64(rec[8:16])
		size := int64(binary.LittleEndian.Uint64(rec[16:24]))
		sum := binary.LittleEndian.Uint64(rec[24:32])
		if sum != fnRecordSum(hi, lo, size) || size < 0 || size > InfSize {
			fc.corrupt++
			continue
		}
		if !fc.entries.Put(FnKey{Hi: hi, Lo: lo}, fnSize{size: int(size), fromDisk: true}) {
			// Append logs legitimately repeat keys (crash before the
			// in-memory dedup was rebuilt, recompute after eviction). The
			// records are content-addressed, so duplicates carry the same
			// size; first wins either way.
			fc.dupes++
			continue
		}
		fc.loaded++
	}
	if fc.corrupt > 0 {
		fc.healNeeded = true
		fmt.Fprintf(os.Stderr, "fncache: %s: ignored %d corrupt or truncated entr%s (treated as misses)\n",
			path, fc.corrupt, plural(fc.corrupt, "y", "ies"))
	}
	return keep
}

// resetLogTo makes the on-disk log consistent with what load accepted:
// intact files are left byte-for-byte alone, a torn tail is truncated to
// the last record boundary, and an unusable header restarts the log. data
// is the file image load saw, used to avoid rewriting an already-valid
// header.
func (fc *FnCache) resetLogTo(keep int64, data []byte) error {
	if keep == int64(len(data)) && keep != 0 {
		return nil
	}
	if keep == 0 {
		if err := fc.file.Truncate(0); err != nil {
			return fmt.Errorf("reset: %w", err)
		}
		if _, err := fc.file.WriteAt([]byte(fnCacheHeader), 0); err != nil {
			return fmt.Errorf("reset: %w", err)
		}
		return nil
	}
	if err := fc.file.Truncate(keep); err != nil {
		return fmt.Errorf("truncate torn tail: %w", err)
	}
	return nil
}

func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// fnRecordSum checksums one record's payload words; it guards against
// bit rot and torn writes, not adversaries.
func fnRecordSum(hi, lo uint64, size int64) uint64 {
	h := ir.NewHasher()
	h.Str(fnCacheMagic)
	h.Uint64(hi)
	h.Uint64(lo)
	h.Uint64(uint64(size))
	return h.Sum64()
}

func encodeRecord(dst []byte, key FnKey, size int) {
	binary.LittleEndian.PutUint64(dst[0:8], key.Hi)
	binary.LittleEndian.PutUint64(dst[8:16], key.Lo)
	binary.LittleEndian.PutUint64(dst[16:24], uint64(int64(size)))
	binary.LittleEndian.PutUint64(dst[24:32], fnRecordSum(key.Hi, key.Lo, int64(size)))
}

// appendRecord persists one freshly computed entry at its record boundary,
// fsyncing every fsyncEvery appends. Called outside mu; storeMu serializes
// writers. A write failure disables persistence for the rest of the run
// (reported once) instead of failing the computation that produced the
// size — the cache stays correct in memory.
func (fc *FnCache) appendRecord(key FnKey, size int) {
	fc.storeMu.Lock()
	defer fc.storeMu.Unlock()
	if fc.file == nil {
		return
	}
	var rec [fnRecordSize]byte
	encodeRecord(rec[:], key, size)
	if _, err := fc.file.Write(rec[:]); err != nil {
		fmt.Fprintf(os.Stderr, "fncache: append failed, disabling persistence: %v\n", err)
		fc.file.Close()
		fc.file = nil
		return
	}
	fc.stored.Add(1)
	fc.sinceSync++
	if fc.fsyncEvery > 0 && fc.sinceSync >= fc.fsyncEvery {
		fc.syncLocked()
	}
}

func (fc *FnCache) syncLocked() {
	if fc.file == nil || fc.sinceSync == 0 {
		return
	}
	if err := fc.file.Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "fncache: fsync: %v\n", err)
		return
	}
	fc.sinceSync = 0
	fc.syncs.Add(1)
}

// sizeOf returns the cached size for key, computing it with compute on the
// first request. hits/misses are the requesting Compiler's counters, so
// each compiler sharing the cache reports its own view.
func (fc *FnCache) sizeOf(key FnKey, hits, misses *atomic.Int64, compute func() int) int {
	v, hit, _ := fc.entries.Do(key, func() (fnSize, error) {
		size := compute()
		// Persist before publishing: once the entry is ready it is visible
		// to Compact's snapshot, and compaction must never observe a ready
		// entry whose record could land after the compacted log's rename
		// out of order. Appends and compaction share storeMu, so "record
		// written" happens-before "entry ready" keeps the log a superset of
		// the ready set.
		if fc.dir != "" {
			fc.appendRecord(key, size)
		}
		return fnSize{size: size}, nil
	})
	countLookup(hit, hits, misses)
	if hit && v.fromDisk {
		fc.diskHits.Add(1)
	}
	return v.size
}

// Len returns the number of entries (ready or in flight).
func (fc *FnCache) Len() int { return fc.entries.Len() }

// Stats returns the cache's own aggregate counters (across every compiler
// sharing it).
func (fc *FnCache) Stats() FnCacheStats {
	st := fc.entries.Stats()
	return FnCacheStats{
		Hits:     st.Hits,
		Misses:   st.Misses,
		DiskHits: fc.diskHits.Load(),
		Loaded:   fc.loaded,
		Corrupt:  fc.corrupt,
		Dupes:    fc.dupes,
		Stored:   fc.stored.Load(),
		Evicted:  st.Evicted,
		Syncs:    fc.syncs.Load(),
	}
}

// Save makes the on-disk log durable: entries are appended incrementally
// as they are computed, so Save only forces the outstanding fsync — and,
// when the open-time load rejected corrupt records, compacts the log so a
// subsequent open is clean again. Kept as the CLIs' end-of-run call; a
// cache opened without a directory is untouched.
func (fc *FnCache) Save() error {
	if fc.dir == "" {
		return nil
	}
	fc.storeMu.Lock()
	heal := fc.healNeeded
	fc.syncLocked()
	fc.storeMu.Unlock()
	if heal {
		return fc.Compact()
	}
	return nil
}

// Close flushes and closes the append log. The cache remains usable in
// memory; further computed entries are simply no longer persisted.
func (fc *FnCache) Close() error {
	if err := fc.Save(); err != nil {
		return err
	}
	fc.storeMu.Lock()
	defer fc.storeMu.Unlock()
	if fc.file != nil {
		err := fc.file.Close()
		fc.file = nil
		if err != nil {
			return fmt.Errorf("fncache: close: %w", err)
		}
	}
	return nil
}

// Compact rewrites the append log as its canonical form: the header plus
// every *currently in-memory* ready entry, deduplicated and sorted by key
// — a pure function of the cache contents, so logs compacted from the same
// entries are byte-identical. Duplicate records accumulated by append
// replays, records rejected as corrupt, and entries dropped by the LRU
// bound are all scrubbed; compaction is therefore also how the on-disk
// store is size-bounded. The rewrite goes through a temp file and rename,
// so a crash mid-compact leaves the previous log intact. Offline form:
// `inlined -compact -cache-dir d`.
func (fc *FnCache) Compact() error {
	if fc.dir == "" {
		return nil
	}
	type kv struct {
		k FnKey
		s int
	}
	snapshot := make([]kv, 0, fc.entries.Len())
	fc.entries.Range(func(k FnKey, v fnSize) bool {
		snapshot = append(snapshot, kv{k, v.size})
		return true
	})
	sort.Slice(snapshot, func(i, j int) bool {
		if snapshot[i].k.Hi != snapshot[j].k.Hi {
			return snapshot[i].k.Hi < snapshot[j].k.Hi
		}
		return snapshot[i].k.Lo < snapshot[j].k.Lo
	})
	buf := make([]byte, 0, len(fnCacheHeader)+len(snapshot)*fnRecordSize)
	buf = append(buf, fnCacheHeader...)
	for _, e := range snapshot {
		var rec [fnRecordSize]byte
		encodeRecord(rec[:], e.k, e.s)
		buf = append(buf, rec[:]...)
	}

	fc.storeMu.Lock()
	defer fc.storeMu.Unlock()
	if err := os.MkdirAll(fc.dir, 0o755); err != nil {
		return fmt.Errorf("fncache: %w", err)
	}
	path := filepath.Join(fc.dir, fnCacheFile)
	tmp, err := os.CreateTemp(fc.dir, fnCacheFile+".tmp*")
	if err != nil {
		return fmt.Errorf("fncache: %w", err)
	}
	_, werr := tmp.Write(buf)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fncache: write %s: %w", path, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fncache: %w", err)
	}
	// Swap the append handle onto the new log so later appends follow it.
	if fc.file != nil {
		fc.file.Close()
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		fc.file = nil
		return fmt.Errorf("fncache: reopen after compact: %w", err)
	}
	fc.file = f
	fc.sinceSync = 0
	fc.healNeeded = false
	return nil
}
