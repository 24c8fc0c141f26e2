package container

import (
	"bytes"
	"testing"

	"hidestore/internal/fp"
)

// FuzzUnmarshalBinary hardens the container decoder against arbitrary
// bytes: it must never panic, and anything it accepts must round-trip.
func FuzzUnmarshalBinary(f *testing.F) {
	c := NewWithCapacity(3, 4096)
	for _, s := range []string{"alpha", "beta", "gamma"} {
		if err := c.Add(fp.Of([]byte(s)), []byte(s)); err != nil {
			f.Fatal(err)
		}
	}
	seed, err := c.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:10])
	f.Add(canonicalImage())
	for _, img := range nonCanonicalImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalBinary(data)
		if err != nil {
			return
		}
		// Accepted input must re-encode and decode to the same content.
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted container failed to marshal: %v", err)
		}
		back, err := UnmarshalBinary(again)
		if err != nil {
			t.Fatalf("re-encoded container failed to decode: %v", err)
		}
		if back.Len() != got.Len() || back.ID() != got.ID() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.ID(), back.Len(), got.ID(), got.Len())
		}
		for _, fpr := range got.Fingerprints() {
			want, err := got.Get(fpr)
			if err != nil {
				t.Fatal(err)
			}
			have, err := back.Get(fpr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, have) {
				t.Fatal("round trip changed payload")
			}
		}
	})
}
