package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"hidestore"
)

// system is what a round drives: the public hidestore.System, or the
// engine the traced run rebuilds from internal constructors.
type system interface {
	backup(ctx context.Context, data []byte) (backupOut, error)
	restore(ctx context.Context, version int, w io.Writer) (restoreOut, error)
	del(version int) error
}

// opener opens (or reopens) the workload's system on dir.
type opener func(dir string) (system, error)

// versionObserver is implemented by systems that look at each version's
// bytes before its backup, outside the clock (the traced run's isolated
// chunker and fingerprint passes).
type versionObserver interface {
	observeVersion(data []byte) error
}

type backupOut struct {
	logical, stored uint64
	chunks, unique  int
}

type restoreOut struct {
	bytes, reads uint64
}

// publicSystem drives the public API, exactly as a library user would.
type publicSystem struct{ sys *hidestore.System }

func openPublic(s spec) opener {
	return func(dir string) (system, error) {
		var sys *hidestore.System
		var err error
		if s.baseline {
			sys, err = hidestore.OpenBaseline(hidestore.BaselineConfig{
				Config: s.config(dir), Index: "ddfs", Rewriter: "capping",
			})
		} else {
			sys, err = hidestore.Open(s.config(dir))
		}
		if err != nil {
			return nil, err
		}
		return publicSystem{sys}, nil
	}
}

func (p publicSystem) backup(ctx context.Context, data []byte) (backupOut, error) {
	rep, err := p.sys.Backup(ctx, bytes.NewReader(data))
	return backupOut{logical: rep.LogicalBytes, stored: rep.StoredBytes, chunks: rep.Chunks, unique: rep.UniqueChunks}, err
}

func (p publicSystem) restore(ctx context.Context, version int, w io.Writer) (restoreOut, error) {
	rep, err := p.sys.Restore(ctx, version, w)
	return restoreOut{bytes: rep.BytesRestored, reads: rep.ContainerReads}, err
}

func (p publicSystem) del(version int) error {
	_, err := p.sys.Delete(version)
	return err
}

// roundResult is one round's measurements: a version chain backed up,
// the system reopened, every retained version restored and verified,
// and the workload's expiries applied.
type roundResult struct {
	// backups and restores are in chain order, so position k is the
	// same step of the chain in every round of a run.
	backups, restores []timedOp
	reads             uint64
	deletes           []time.Duration
	// creates are the times of opens that create a store, reopens those
	// of the opens before the restore phase.
	creates, reopens []time.Duration
	peakHeap         uint64
	// spaceBytes is what the store keeps on disk (read cache excluded);
	// liveBytes the logical size of the versions still retained.
	spaceBytes, liveBytes uint64
	attempted, failed     int
	// shape lists the round's deterministic outcomes (per-version chunk
	// counts and stored bytes, per-restore container reads, final
	// on-disk footprint); two assemblies of one engine must agree on it.
	shape []string
}

type timedOp struct {
	bytes uint64
	d     time.Duration
}

// total sums the bytes and times of ops.
func total(ops []timedOp) (bytes uint64, d time.Duration) {
	for _, op := range ops {
		bytes += op.bytes
		d += op.d
	}
	return bytes, d
}

type version struct {
	n    int
	size uint64
	sum  [sha256.Size]byte
	live bool
}

// runRound runs one round of s on a fresh directory dir. Inputs are
// generated and hashed, and restores verified, outside the clock. An
// operation error ends the round; a verification mismatch is counted
// and the round goes on.
func runRound(ctx context.Context, s spec, seed int64, open opener, dir string, heap *heapSampler) (res roundResult, err error) {
	gen, err := s.generator(seed)
	if err != nil {
		return res, err
	}
	heap.reset()
	defer func() { res.peakHeap = heap.peak.Load() }()

	// Stores created on side directories and dropped at once give more
	// samples of the creating open than the round's own store does.
	for j := 1; j < createSamples; j++ {
		side := fmt.Sprintf("%s-create-%d", dir, j)
		_, d, err := res.open(open, side)
		if err != nil {
			return res, err
		}
		res.creates = append(res.creates, d)
		if err := os.RemoveAll(side); err != nil {
			return res, err
		}
	}
	sys, d, err := res.open(open, dir)
	if err != nil {
		return res, err
	}
	res.creates = append(res.creates, d)
	vers := make([]version, 0, s.versions)
	// Both buffers are allocated once, with room for the versions'
	// growth, so the heap the round holds does not depend on how a
	// buffer happened to grow.
	in := bytes.NewBuffer(make([]byte, 0, s.versionMB*mib*3/2))
	out := bytes.NewBuffer(make([]byte, 0, s.versionMB*mib*3/2))
	for n := 1; n <= s.versions; n++ {
		r, err := gen.NextVersion()
		if err != nil {
			return res, err
		}
		in.Reset()
		if _, err := in.ReadFrom(r); err != nil {
			return res, fmt.Errorf("generate v%d: %w", n, err)
		}
		data := in.Bytes()
		v := version{n: n, size: uint64(len(data)), sum: sha256.Sum256(data), live: true}
		if o, ok := sys.(versionObserver); ok {
			if err := o.observeVersion(data); err != nil {
				return res, fmt.Errorf("observe v%d: %w", n, err)
			}
		}
		var rep backupOut
		d, err := res.op(heap, func() (err error) {
			rep, err = sys.backup(ctx, data)
			return err
		})
		if err != nil {
			return res, fmt.Errorf("backup v%d: %w", n, err)
		}
		if rep.logical != v.size {
			res.failed++
			fmt.Fprintf(os.Stderr, "backup v%d: %d logical bytes, input has %d\n", n, rep.logical, v.size)
		}
		res.backups = append(res.backups, timedOp{v.size, d})
		res.shape = append(res.shape, fmt.Sprintf("backup v%d: %d chunks, %d unique, %d stored", n, rep.chunks, rep.unique, rep.stored))
		vers = append(vers, v)
		if s.retain > 0 && n > s.retain {
			if err := res.del(heap, sys, &vers[n-s.retain-1]); err != nil {
				return res, err
			}
		}
	}

	// Every hidestore CLI command is its own process: restores run on a
	// freshly opened system that loaded its state from disk. The store
	// is reopened several times, for more set-up samples; the last
	// system opened serves the restores.
	for j := 0; j < reopenSamples; j++ {
		if sys, d, err = res.open(open, dir); err != nil {
			return res, err
		}
		res.reopens = append(res.reopens, d)
	}
	for i := range vers {
		v := &vers[i]
		if !v.live {
			continue
		}
		out.Reset()
		out.Grow(int(v.size))
		var rep restoreOut
		d, err := res.op(heap, func() (err error) {
			rep, err = sys.restore(ctx, v.n, out)
			return err
		})
		if err != nil {
			return res, fmt.Errorf("restore v%d: %w", v.n, err)
		}
		if sha256.Sum256(out.Bytes()) != v.sum || rep.bytes != v.size {
			res.failed++
			fmt.Fprintf(os.Stderr, "restore v%d: %d bytes restored do not match the %d backed up\n", v.n, out.Len(), v.size)
		}
		res.restores = append(res.restores, timedOp{rep.bytes, d})
		res.reads += rep.reads
		res.shape = append(res.shape, fmt.Sprintf("restore v%d: %d container reads", v.n, rep.reads))
	}
	for i := 0; i < s.expire; i++ {
		if err := res.del(heap, sys, &vers[i]); err != nil {
			return res, err
		}
	}

	files, space, err := storeFootprint(dir)
	if err != nil {
		return res, err
	}
	res.spaceBytes = space
	for _, v := range vers {
		if v.live {
			res.liveBytes += v.size
		}
	}
	res.shape = append(res.shape, fmt.Sprintf("store: %d files, %d bytes", files, space))
	return res, nil
}

// createSamples and reopenSamples are how many stores a round creates
// and how many times it reopens its own.
const (
	createSamples = 3
	reopenSamples = 5
)

func (res *roundResult) open(open opener, dir string) (system, time.Duration, error) {
	res.attempted++
	start := time.Now()
	sys, err := open(dir)
	d := time.Since(start)
	if err != nil {
		res.failed++
		return nil, d, fmt.Errorf("open: %w", err)
	}
	return sys, d, nil
}

// op times one operation with the heap sampler on, counting it.
func (res *roundResult) op(heap *heapSampler, f func() error) (time.Duration, error) {
	res.attempted++
	heap.on.Store(true)
	heap.sample()
	start := time.Now()
	err := f()
	d := time.Since(start)
	heap.sample()
	heap.on.Store(false)
	if err != nil {
		res.failed++
	}
	return d, err
}

func (res *roundResult) del(heap *heapSampler, sys system, v *version) error {
	d, err := res.op(heap, func() error { return sys.del(v.n) })
	if err != nil {
		return fmt.Errorf("delete v%d: %w", v.n, err)
	}
	v.live = false
	res.deletes = append(res.deletes, d)
	return nil
}

// storeFootprint sums the files a store keeps under dir: containers,
// recipes and state. The persistent read cache (dir/cache) is a copy of
// remote data, not stored data, so it is left out.
func storeFootprint(dir string) (files int, size uint64, err error) {
	cache := filepath.Join(dir, "cache")
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == cache {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += uint64(info.Size())
		return nil
	})
	return files, size, err
}

// heapSampler records the highest live heap (as of the latest garbage
// collection) while an operation runs: at each operation's start and
// end, and every samplePeriod in between. The live heap, unlike the
// allocated heap, does not depend on when the collector happened to run.
type heapSampler struct {
	on   atomic.Bool
	peak atomic.Uint64
	mu   sync.Mutex // guards buf
	buf  []metrics.Sample
	stop chan struct{}
	wg   sync.WaitGroup
}

const samplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		buf:  []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		stop: make(chan struct{}),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if h.on.Load() {
					h.sample()
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	metrics.Read(h.buf)
	v := h.buf[0].Value.Uint64()
	h.mu.Unlock()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.peak.Store(0) }

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
