package bloom

import (
	"strconv"
	"testing"
	"testing/quick"

	"hidestore/internal/fp"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		p       float64
		wantErr bool
	}{
		{"ok", 1000, 0.01, false},
		{"zero n", 0, 0.01, true},
		{"negative n", -5, 0.01, true},
		{"p zero", 100, 0, true},
		{"p one", 100, 1, true},
		{"p big", 100, 1.5, true},
		{"tiny", 1, 0.5, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.p)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d, %g) err = %v, wantErr %v", tt.n, tt.p, err, tt.wantErr)
			}
		})
	}
}

// TestNoFalseNegatives is the fundamental Bloom filter invariant:
// every added key must be reported as possibly present.
func TestNoFalseNegatives(t *testing.T) {
	f, err := New(10000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]fp.FP, 10000)
	for i := range keys {
		keys[i] = fp.Of([]byte("key-" + strconv.Itoa(i)))
		f.Add(keys[i])
	}
	for i, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	if f.Added() != 10000 {
		t.Fatalf("Added() = %d, want 10000", f.Added())
	}
}

// TestQuickNoFalseNegatives property-tests the invariant on arbitrary data.
func TestQuickNoFalseNegatives(t *testing.T) {
	f, err := New(1000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	check := func(data []byte) bool {
		k := fp.Of(data)
		f.Add(k)
		return f.MayContain(k)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFalsePositiveRate checks that the observed FP rate on unseen keys is
// within a small factor of the configured rate.
func TestFalsePositiveRate(t *testing.T) {
	const n = 20000
	f, err := New(n, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.Add(fp.Of([]byte("in-" + strconv.Itoa(i))))
	}
	falsePos := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain(fp.Of([]byte("out-" + strconv.Itoa(i)))) {
			falsePos++
		}
	}
	rate := float64(falsePos) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f exceeds 3x configured 0.01", rate)
	}
	if est := f.EstimatedFalsePositiveRate(); est > 0.02 {
		t.Fatalf("estimated FP rate %.4f too high", est)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f, err := New(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if f.MayContain(fp.Of([]byte(strconv.Itoa(i)))) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty filter reported %d hits", hits)
	}
}

// TestBitsAllocatedOnFirstAdd: New only sizes the filter; the bit array
// appears with the first Add, and SizeBytes reports it either way.
func TestBitsAllocatedOnFirstAdd(t *testing.T) {
	f, err := New(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	size := f.SizeBytes()
	if f.bits != nil {
		t.Fatal("New allocated the bit array")
	}
	if f.MayContain(fp.Of([]byte("x"))) {
		t.Fatal("unallocated filter reported a key")
	}
	f.Add(fp.Of([]byte("x")))
	if len(f.bits)*8 != size || f.SizeBytes() != size {
		t.Fatalf("allocated %d bytes, SizeBytes %d before and %d after", len(f.bits)*8, size, f.SizeBytes())
	}
	if !f.MayContain(fp.Of([]byte("x"))) {
		t.Fatal("added key missing")
	}
}

func TestReset(t *testing.T) {
	f, err := New(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	k := fp.Of([]byte("x"))
	f.Add(k)
	if !f.MayContain(k) {
		t.Fatal("added key missing")
	}
	f.Reset()
	if f.MayContain(k) {
		t.Fatal("key survived Reset")
	}
	if f.Added() != 0 {
		t.Fatalf("Added() after Reset = %d", f.Added())
	}
}

func TestSizeScalesWithN(t *testing.T) {
	small, err := New(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(100000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("size did not grow with n: %d <= %d", big.SizeBytes(), small.SizeBytes())
	}
}

func BenchmarkAdd(b *testing.B) {
	f, err := New(1<<20, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	k := fp.Of([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k[0] = byte(i)
		f.Add(k)
	}
}

func BenchmarkMayContain(b *testing.B) {
	f, err := New(1<<20, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f.Add(fp.Of([]byte(strconv.Itoa(i))))
	}
	k := fp.Of([]byte("probe"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k[0] = byte(i)
		f.MayContain(k)
	}
}
