package container

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"hidestore/internal/fp"
)

// marshalReference is the encoder MarshalBinary replaced: compact the
// live chunks into a fresh container, then copy that container's
// entries and payload into the output. It pins the one-pass encoder to
// the bytes existing stores hold.
func marshalReference(c *Container) []byte {
	packed := c
	if c.dead > 0 {
		packed = c.Compacted(c.id)
	}
	entries := packed.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Offset < entries[j].Offset })
	buf := make([]byte, _headerSize+len(entries)*_entrySize+len(packed.data))
	binary.BigEndian.PutUint32(buf[0:], _magic)
	binary.BigEndian.PutUint16(buf[4:], _formatVersion)
	binary.BigEndian.PutUint32(buf[8:], uint32(packed.id))
	binary.BigEndian.PutUint32(buf[12:], uint32(len(entries)))
	binary.BigEndian.PutUint32(buf[16:], uint32(len(packed.data)))
	off := _headerSize
	for _, e := range entries {
		copy(buf[off:], e.FP[:])
		binary.BigEndian.PutUint32(buf[off+fp.Size:], e.Offset)
		binary.BigEndian.PutUint32(buf[off+fp.Size+4:], e.Size)
		off += _entrySize
	}
	copy(buf[off:], packed.data)
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[_headerSize:]))
	return buf
}

// randomContainer fills a container with random chunks and removes a
// random share of them, leaving dead space anywhere in the payload.
func randomContainer(t *testing.T, rng *rand.Rand) *Container {
	t.Helper()
	c := NewWithCapacity(ID(1+rng.Intn(1000)), 1<<10+rng.Intn(64<<10))
	var fps []fp.FP
	for {
		d := make([]byte, 1+rng.Intn(2048))
		rng.Read(d)
		if !c.HasRoom(len(d)) {
			break
		}
		f := fp.Of(d)
		if err := c.Add(f, d); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, f)
	}
	removeShare := rng.Float64()
	for _, f := range fps {
		if rng.Float64() < removeShare {
			if err := c.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestMarshalMatchesReference: the one-pass encoder writes the same
// bytes as the compact-then-copy encoder it replaced, for containers
// with and without dead space, freshly filled and decoded alike.
func TestMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		c := randomContainer(t, rng)
		want := marshalReference(c)
		got, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("container %d (%d live, %d dead bytes): encoding differs from the reference", i, c.LiveSize(), c.dead)
		}
		// A decoded image that loses more chunks must still agree.
		dec, err := UnmarshalBinary(got)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range dec.Fingerprints() {
			if rng.Intn(3) == 0 {
				if err := dec.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		again, err := dec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, marshalReference(dec)) {
			t.Fatalf("container %d: encoding of the decoded copy differs from the reference", i)
		}
	}
}

// TestMarshalRejectsReAddedChunk: a fingerprint removed and added
// again sits twice in the insertion order. The encoder reports that
// instead of writing an image whose entries disagree with its header.
func TestMarshalRejectsReAddedChunk(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	fa, da := chunkOf("alpha")
	fb, db := chunkOf("beta")
	for _, step := range []func() error{
		func() error { return c.Add(fa, da) },
		func() error { return c.Add(fb, db) },
		func() error { return c.Remove(fa) },
		func() error { return c.Add(fa, da) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary accepted a fingerprint listed twice in insertion order")
	}
}

// rawImage encodes entries and data exactly as given, with a valid
// header and checksum, so only the layout can be wrong.
func rawImage(entries []Entry, data []byte) []byte {
	buf := make([]byte, _headerSize+len(entries)*_entrySize+len(data))
	binary.BigEndian.PutUint32(buf[0:], _magic)
	binary.BigEndian.PutUint16(buf[4:], _formatVersion)
	binary.BigEndian.PutUint32(buf[8:], 1)
	binary.BigEndian.PutUint32(buf[12:], uint32(len(entries)))
	binary.BigEndian.PutUint32(buf[16:], uint32(len(data)))
	off := _headerSize
	for _, e := range entries {
		copy(buf[off:], e.FP[:])
		binary.BigEndian.PutUint32(buf[off+fp.Size:], e.Offset)
		binary.BigEndian.PutUint32(buf[off+fp.Size+4:], e.Size)
		off += _entrySize
	}
	copy(buf[off:], data)
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[_headerSize:]))
	return buf
}

// nonCanonicalImages are checksum-valid images whose entries do not
// tile the payload in entry order. The decoder aliases the payload, so
// it accepts only the canonical layout; canonicalImage is the same
// three chunks laid out as MarshalBinary writes them.
func nonCanonicalImages() map[string][]byte {
	a, b, g := fp.Of([]byte("alpha")), fp.Of([]byte("beta")), fp.Of([]byte("gamma"))
	data := []byte("alphabetagamma")
	return map[string][]byte{
		"gap":               rawImage([]Entry{{a, 0, 5}, {b, 6, 4}, {g, 10, 5}}, []byte("alpha-betagamma")),
		"overlap":           rawImage([]Entry{{a, 0, 5}, {b, 4, 4}, {g, 8, 5}}, data[:13]),
		"out of order":      rawImage([]Entry{{b, 5, 4}, {a, 0, 5}, {g, 9, 5}}, data),
		"duplicate":         rawImage([]Entry{{a, 0, 5}, {a, 5, 5}, {g, 10, 5}}, []byte("alphaalphagamma")),
		"unreferenced tail": rawImage([]Entry{{a, 0, 5}, {b, 5, 4}}, data),
		"past the payload":  rawImage([]Entry{{a, 0, 5}, {b, 5, 4}, {g, 9, 6}}, data),
	}
}

func canonicalImage() []byte {
	a, b, g := fp.Of([]byte("alpha")), fp.Of([]byte("beta")), fp.Of([]byte("gamma"))
	return rawImage([]Entry{{a, 0, 5}, {b, 5, 4}, {g, 9, 5}}, []byte("alphabetagamma"))
}

// TestViewAppendCannotClobber: a view's capacity ends at its chunk, so
// appending to it reallocates and the next chunk keeps its bytes.
func TestViewAppendCannotClobber(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	fa, da := chunkOf("alpha")
	fb, db := chunkOf("beta")
	for _, x := range []struct {
		f fp.FP
		d []byte
	}{{fa, da}, {fb, db}} {
		if err := c.Add(x.f, x.d); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.View(fa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, da) || cap(v) != len(v) {
		t.Fatalf("View = %q (cap %d), want %q capped at its length", v, cap(v), da)
	}
	_ = append(v, "XXXX"...)
	got, err := c.View(fb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, db) {
		t.Fatalf("next chunk = %q after appending to a view, want %q", got, db)
	}
}

// TestDecodedContainerAliasesReadBuffer: a decoded container's views
// point into the buffer it was decoded from, and an Add on it writes
// into a fresh payload, never into that buffer.
func TestDecodedContainerAliasesReadBuffer(t *testing.T) {
	c := NewWithCapacity(4, 1024)
	f, d := chunkOf("resident")
	if err := c.Add(f, d); err != nil {
		t.Fatal(err)
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), buf...)
	dec, err := UnmarshalBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dec.View(f)
	if err != nil {
		t.Fatal(err)
	}
	if &v[0] != &buf[_headerSize+_entrySize] {
		t.Fatal("decoded payload does not alias the read buffer")
	}
	for i := 0; i < 3; i++ {
		g, e := chunkOf("appended-" + string(rune('a'+i)))
		if err := dec.Add(g, e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("Add on a decoded container wrote into the read buffer")
	}
	if got, err := dec.Get(f); err != nil || !bytes.Equal(got, d) {
		t.Fatalf("decoded chunk after Add = %q, %v; want %q", got, err, d)
	}
}

var mapSink map[fp.FP]Entry

// fullImage encodes a 4 MB container split into n equal chunks.
func fullImage(t *testing.T, n int) []byte {
	t.Helper()
	c := New(1)
	size := DefaultCapacity / n
	for i := 0; i < n; i++ {
		d := make([]byte, size)
		binary.BigEndian.PutUint64(d, uint64(i))
		if err := c.Add(fp.Of(d), d); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecodeAllocsFlat: decoding a full 4 MB image allocates the
// container, its order slice and its entry map sized once from the
// count, whatever the chunk count. The runtime's map itself allocates
// one table per ~1000 entries, so the test measures the decoder's
// allocations beyond those of filling an equally sized map.
func TestDecodeAllocsFlat(t *testing.T) {
	const extraAllowed = 2 // the Container and its order slice
	for _, n := range []int{1, 64, 512, 1024, 4096} {
		buf := fullImage(t, n)
		fps := make([]fp.FP, n)
		for i := range fps {
			copy(fps[i][:], buf[_headerSize+i*_entrySize:])
		}
		mapAllocs := testing.AllocsPerRun(10, func() {
			m := make(map[fp.FP]Entry, n)
			for _, f := range fps {
				m[f] = Entry{}
			}
			mapSink = m // escape to the heap, as the decoder's map does
		})
		decodeAllocs := testing.AllocsPerRun(10, func() {
			if _, err := UnmarshalBinary(buf); err != nil {
				t.Fatal(err)
			}
		})
		if extra := decodeAllocs - mapAllocs; extra > extraAllowed {
			t.Fatalf("%d chunks: decode made %v allocations, %v beyond its entry map; want at most %d",
				n, decodeAllocs, extra, extraAllowed)
		}
	}
}

// TestEncodeAllocsOnce: encoding a container with dead space allocates
// the output buffer and nothing else — no compacted intermediate copy.
func TestEncodeAllocsOnce(t *testing.T) {
	c := New(1)
	rng := rand.New(rand.NewSource(5))
	var fps []fp.FP
	for c.Free() > 8192 {
		d := make([]byte, 4096+rng.Intn(4096))
		rng.Read(d)
		f := fp.Of(d)
		if err := c.Add(f, d); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, f)
	}
	for i := 0; i < len(fps); i += 3 {
		if err := c.Remove(fps[i]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("MarshalBinary made %v allocations, want 1 (the output buffer)", allocs)
	}
}

// TestAddReservesCapacityOnce: filling a container allocates its
// payload once, at full capacity, on the first Add; later Adds never
// move it.
func TestAddReservesCapacityOnce(t *testing.T) {
	c := NewWithCapacity(1, 64<<10)
	d := make([]byte, 4096)
	var first *byte
	for i := 0; c.HasRoom(len(d)); i++ {
		binary.BigEndian.PutUint32(d, uint32(i))
		if err := c.Add(fp.Of(d), d); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = &c.data[0]
		}
		if &c.data[0] != first || cap(c.data) != c.Capacity() {
			t.Fatalf("Add %d: payload moved or capacity %d, want %d reserved at the first Add", i, cap(c.data), c.Capacity())
		}
	}
}
