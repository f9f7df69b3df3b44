package compile

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// snapshotSizes reads the ready entries — the survivor set the
// differential assertions compare across heal cycles.
func snapshotSizes(fc *FnCache) map[FnKey]int {
	out := make(map[FnKey]int, fc.Len())
	fc.entries.Range(func(k FnKey, v fnSize) bool {
		out[k] = v.size
		return true
	})
	return out
}

// fuzzSeedLog builds a valid v2 log with n records (fakeSize oracle).
func fuzzSeedLog(n int) []byte {
	buf := []byte(fnCacheHeader)
	rec := [fnRecordSize]byte{}
	for i := 0; i < n; i++ {
		k := FnKey{Hi: uint64(i)*2654435761 + 1, Lo: uint64(i) + 7}
		encodeRecord(rec[:], k, fakeSize(k))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// FuzzFnCacheStoreOpen is the differential fuzz for the incremental store:
// arbitrary bytes masquerading as a log file must (1) never panic or error
// the open path, (2) load only checksum-valid, deduplicated records —
// every loaded entry must round-trip its stored size — and (3) reach a
// clean fixed point after one Compact: the healed store reopens with zero
// corruption, zero duplicates, and exactly the entries that survived the
// first open (the differential half: load(compact(load(x))) == load(x)).
func FuzzFnCacheStoreOpen(f *testing.F) {
	valid := fuzzSeedLog(8)
	f.Add(valid)                                                                                              // pristine log
	f.Add(valid[:len(valid)-13])                                                                              // torn final record
	f.Add(append(append([]byte{}, valid...), valid[len(fnCacheHeader):len(fnCacheHeader)+2*fnRecordSize]...)) // crash re-append duplicates
	f.Add(valid[:len(fnCacheHeader)])                                                                         // header only
	f.Add([]byte("OPTFNC2\nbogus-schema\n"))                                                                  // right magic, wrong schema
	f.Add([]byte{})                                                                                           // empty file
	f.Add(bytes.Repeat([]byte{0xff}, 200))                                                                    // garbage
	flipped := append([]byte{}, valid...)
	flipped[len(fnCacheHeader)+40] ^= 0x40 // checksum break mid-log
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fnCacheFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		fc, err := OpenFnCacheWith(FnCacheConfig{Dir: dir})
		if err != nil {
			t.Fatalf("open on arbitrary bytes must degrade, not fail: %v", err)
		}
		st := fc.Stats()
		if st.Loaded < 0 || st.Corrupt < 0 || st.Dupes < 0 {
			t.Fatalf("negative open stats: %+v", st)
		}
		if int(st.Loaded) != fc.Len() {
			t.Fatalf("loaded %d != live entries %d", st.Loaded, fc.Len())
		}

		// Every surviving entry serves its stored size as a disk hit.
		sizes := snapshotSizes(fc)
		var h, m atomic.Int64
		for k, size := range sizes {
			if got := fc.sizeOf(k, &h, &m, func() int {
				t.Fatalf("key %v: loaded entry recomputed", k)
				return 0
			}); got != size {
				t.Fatalf("key %v: size %d, snapshot says %d", k, got, size)
			}
		}

		// Heal: one compaction must reach the clean fixed point.
		if err := fc.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := fc.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		fc2, err := OpenFnCacheWith(FnCacheConfig{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after compact: %v", err)
		}
		defer fc2.Close()
		st2 := fc2.Stats()
		if st2.Corrupt != 0 || st2.Dupes != 0 {
			t.Fatalf("compacted store not clean: corrupt=%d dupes=%d", st2.Corrupt, st2.Dupes)
		}
		if int(st2.Loaded) != len(sizes) {
			t.Fatalf("compacted store has %d entries, survivor set has %d", st2.Loaded, len(sizes))
		}
		for k, size := range snapshotSizes(fc2) {
			if want, ok := sizes[k]; !ok || want != size {
				t.Fatalf("key %v: post-compact size %d, pre-compact %d (present %v)", k, size, want, ok)
			}
		}
	})
}
