// Package bloom implements a Bloom filter.
//
// DDFS (Zhu et al., FAST'08) — one of the baselines the paper compares
// against — keeps an in-memory Bloom filter ("summary vector") in front of
// the on-disk full fingerprint index: if the filter reports "absent", the
// chunk is definitely unique and the expensive disk lookup is skipped.
// Destor adopts the same trick, which is why the paper's lookup-overhead
// metric (§5.2.2) only counts lookups for *duplicate* candidates.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"

	"hidestore/internal/fp"
)

// Filter is a standard k-hash Bloom filter over chunk fingerprints.
// The zero value is not usable; construct with New. The bit array is
// allocated on the first Add: until then every key is absent, exactly
// as in a zeroed array, and opening an index that never inserts costs
// no multi-megabyte allocation.
//
// Filter is not safe for concurrent use; callers that share one across
// goroutines must synchronize externally.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
	added  uint64
}

// New creates a filter sized for the expected number of elements n at the
// given false-positive probability p (0 < p < 1). DDFS-style deployments
// use p ≈ 0.01.
func New(n int, p float64) (*Filter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bloom: expected elements must be positive, got %d", n)
	}
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("bloom: false-positive rate must be in (0,1), got %g", p)
	}
	// Optimal parameters: m = -n·ln(p)/ln(2)^2, k = (m/n)·ln(2).
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Filter{nbits: m, hashes: k}, nil
}

// indexes derives the k bit positions for a fingerprint using the
// Kirsch–Mitzenmitzer double-hashing construction: position_i = h1 + i·h2.
// SHA-1 fingerprints are already uniform, so two disjoint 8-byte slices of
// the digest serve as independent hash values.
func (f *Filter) indexes(key fp.FP, out []uint64) {
	h1 := binary.BigEndian.Uint64(key[0:8])
	h2 := binary.BigEndian.Uint64(key[8:16]) | 1 // odd so it cycles all bits
	for i := range out {
		out[i] = (h1 + uint64(i)*h2) % f.nbits
	}
}

// Add inserts a fingerprint.
func (f *Filter) Add(key fp.FP) {
	if f.bits == nil {
		f.bits = make([]uint64, f.words())
	}
	idx := make([]uint64, f.hashes)
	f.indexes(key, idx)
	for _, b := range idx {
		f.bits[b/64] |= 1 << (b % 64)
	}
	f.added++
}

// MayContain reports whether the fingerprint might have been added.
// False means definitely not added; true may be a false positive.
func (f *Filter) MayContain(key fp.FP) bool {
	if f.bits == nil {
		return false
	}
	idx := make([]uint64, f.hashes)
	f.indexes(key, idx)
	for _, b := range idx {
		if f.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// Added returns the number of Add calls so far.
func (f *Filter) Added() uint64 { return f.added }

// SizeBytes returns the memory footprint of the bit array, whether or
// not the first Add has allocated it yet.
func (f *Filter) SizeBytes() int { return f.words() * 8 }

// words is the bit array's length in 64-bit words.
func (f *Filter) words() int { return int((f.nbits + 63) / 64) }

// EstimatedFalsePositiveRate returns the theoretical false-positive
// probability at the current fill level: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	k := float64(f.hashes)
	n := float64(f.added)
	m := float64(f.nbits)
	return math.Pow(1-math.Exp(-k*n/m), k)
}

// Reset clears the filter without reallocating.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.added = 0
}
