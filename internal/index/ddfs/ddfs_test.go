package ddfs

import (
	"strconv"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
)

func seg(prefix string, n int) []index.ChunkRef {
	out := make([]index.ChunkRef, n)
	for i := range out {
		out[i] = index.ChunkRef{FP: fp.Of([]byte(prefix + strconv.Itoa(i))), Size: 4096}
	}
	return out
}

func sameCIDs(n int, cid container.ID) []container.ID {
	out := make([]container.ID, n)
	for i := range out {
		out[i] = cid
	}
	return out
}

func TestBloomSkipsUniqueLookups(t *testing.T) {
	ix, err := New(Options{ExpectedChunks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	// An all-unique stream should trigger (almost) no disk lookups: the
	// Bloom filter proves each chunk is new. Allow a handful of false
	// positives.
	s := seg("u", 5000)
	ix.Dedup(s)
	if got := ix.Stats().DiskLookups; got > 100 {
		t.Fatalf("DiskLookups = %d for all-unique stream; bloom should suppress most", got)
	}
}

func TestLocalityPrefetchSavesLookups(t *testing.T) {
	ix, err := New(Options{ExpectedChunks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	// Store 100 chunks, all in container 1.
	s := seg("a", 100)
	ix.Commit(s, sameCIDs(100, 1))
	ix.EndVersion()

	// Re-deduplicate: the first chunk misses the cache (1 disk lookup),
	// which prefetches container 1's whole group; the remaining 99 must
	// hit the cache.
	ix.Dedup(s)
	st := ix.Stats()
	if st.DiskLookups != 1 {
		t.Fatalf("DiskLookups = %d, want 1 (prefetch should serve the rest)", st.DiskLookups)
	}
	if st.CacheHits != 99 {
		t.Fatalf("CacheHits = %d, want 99", st.CacheHits)
	}
}

func TestCacheEvictionForcesRelookup(t *testing.T) {
	ix, err := New(Options{ExpectedChunks: 1 << 12, CacheContainers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Three containers' worth of chunks; cache holds only two groups.
	for cid := container.ID(1); cid <= 3; cid++ {
		s := seg("c"+strconv.Itoa(int(cid))+"-", 10)
		ix.Commit(s, sameCIDs(10, cid))
	}
	ix.EndVersion()
	// Touch container 1, 2, 3 in order; then 1 again — it must have been
	// evicted, costing a fresh disk lookup.
	for _, cid := range []int{1, 2, 3} {
		ix.Dedup(seg("c"+strconv.Itoa(cid)+"-", 10))
	}
	before := ix.Stats().DiskLookups
	ix.Dedup(seg("c1-", 10))
	after := ix.Stats().DiskLookups
	if after != before+1 {
		t.Fatalf("expected exactly one more disk lookup after eviction, got %d -> %d", before, after)
	}
}

func TestMemoryAccountsFullIndex(t *testing.T) {
	ix, err := New(Options{ExpectedChunks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	base := ix.MemoryBytes() // bloom filter only
	s := seg("m", 1000)
	ix.Commit(s, sameCIDs(1000, 1))
	grown := ix.MemoryBytes()
	if grown-base != 1000*entrySize {
		t.Fatalf("full index grew by %d, want %d", grown-base, 1000*entrySize)
	}
	if ix.UniqueChunks() != 1000 {
		t.Fatalf("UniqueChunks = %d", ix.UniqueChunks())
	}
}

func TestCommitIgnoresZeroCID(t *testing.T) {
	ix, err := New(Options{ExpectedChunks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	s := seg("z", 5)
	ix.Commit(s, make([]container.ID, 5)) // all zero: nothing placed
	if ix.UniqueChunks() != 0 {
		t.Fatal("zero CIDs must not be indexed")
	}
}

func TestOptionsDefaults(t *testing.T) {
	if _, err := New(Options{}); err != nil {
		t.Fatalf("defaults should be valid: %v", err)
	}
}

// TestLazyFilterMatchesEager: the Bloom filter allocates its bit array
// on the first insert. An index opened that way must decide every chunk
// exactly as one whose filter was allocated up front, and report the
// same stats and memory footprint, before and after its first commit.
func TestLazyFilterMatchesEager(t *testing.T) {
	opts := Options{ExpectedChunks: 1 << 8, CacheContainers: 2}
	lazy, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Adding a key and resetting leaves an allocated, all-zero filter.
	eager.filter.Add(fp.Of([]byte("allocate")))
	eager.filter.Reset()

	for v := 0; v < 6; v++ {
		// Each version repeats half of the previous one's chunks, so the
		// filter, the locality cache and the full index all answer.
		s := append(seg("v"+strconv.Itoa(v), 300), seg("v"+strconv.Itoa(v-1), 150)...)
		got, want := lazy.Dedup(s), eager.Dedup(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v%d chunk %d: lazy filter decided %+v, eager %+v", v, i, got[i], want[i])
			}
		}
		if lazy.Stats() != eager.Stats() {
			t.Fatalf("v%d: lazy stats %+v, eager %+v", v, lazy.Stats(), eager.Stats())
		}
		if lazy.MemoryBytes() != eager.MemoryBytes() {
			t.Fatalf("v%d: lazy memory %d, eager %d", v, lazy.MemoryBytes(), eager.MemoryBytes())
		}
		cids := make([]container.ID, len(s))
		for i, r := range want {
			if !r.Duplicate {
				cids[i] = container.ID(v*4 + 1 + i/100)
			}
		}
		lazy.Commit(s, cids)
		eager.Commit(s, cids)
		lazy.EndVersion()
		eager.EndVersion()
	}
	if lazy.Stats().DiskLookups == 0 || lazy.Stats().CacheHits == 0 {
		t.Fatalf("workload never reached the full index or the cache: %+v", lazy.Stats())
	}
}
