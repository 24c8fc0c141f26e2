package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/durable"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
)

// tracedRound is one traced round's engine assembly state: the span
// recorder, and what the engines' reports and the backend simulators
// say, summed over every operation of the round.
type tracedRound struct {
	spec spec
	rec  recorder

	dedupTime, migrateTime, recipeUpdateTime, flattenTime time.Duration
	indexLookups, indexHits, diskLookups                  uint64
	rewrittenBytes                                        uint64
	reads, cacheHits, chunks, readsLatest                 uint64
	chunksScanned, containersRewritten                    int
	indexMem                                              int64
	chunkTime, fpTime                                     time.Duration
	passBytes                                             uint64

	sims    []*backend.RemoteSim
	backend *obs.BackendMetrics
}

func newTracedRound(s spec) *tracedRound {
	return &tracedRound{spec: s, backend: obs.NewBackendMetrics(obs.NewRegistry())}
}

// tracedSystem is the engine hidestore.Open (or OpenBaseline) builds,
// rebuilt from the same internal constructors with a timing wrapper
// around every interface the engine takes.
type tracedSystem struct {
	t   *tracedRound
	eng backup.Engine
	ix  index.Index // nil for HiDeStore
}

// open mirrors hidestore.Open / hidestore.OpenBaseline for the
// workload's configuration.
func (t *tracedRound) open(dir string) (sys system, err error) {
	op := t.rec.begin("open")
	defer func() {
		if eerr := t.rec.end(op); err == nil && eerr != nil {
			err = eerr
		}
	}()
	set, err := t.stores(dir)
	if err != nil {
		return nil, err
	}
	rc := &tracedCache{inner: restorecache.NewFAA(0), rec: &t.rec}
	workers := t.spec.config(dir).RestoreWorkers
	ts := &tracedSystem{t: t}
	if t.spec.baseline {
		ix, err := ddfs.New(ddfs.Options{})
		if err != nil {
			return nil, err
		}
		rw, err := rewrite.New("capping")
		if err != nil {
			return nil, err
		}
		ts.ix = ix
		ts.eng, err = dedup.New(dedup.Config{
			Chunker:        chunker.TTTD,
			ChunkParams:    chunker.DefaultParams(),
			Index:          &tracedIndex{inner: ix, rec: &t.rec},
			Rewriter:       rw,
			RestoreCache:   rc,
			Store:          set.containers,
			Recipes:        set.recipes,
			RestoreWorkers: workers,
		})
		if err != nil {
			return nil, err
		}
		return ts, nil
	}
	ts.eng, err = core.New(core.Config{
		Chunker:        chunker.TTTD,
		ChunkParams:    chunker.DefaultParams(),
		Store:          set.containers,
		Recipes:        set.recipes,
		Window:         t.spec.window,
		RestoreCache:   rc,
		RestoreWorkers: workers,
		StatePath:      set.statePath,
		WriteState:     set.writeState,
		ReadState:      set.readState,
	})
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// stateFileName matches the library's state blob name.
const stateFileName = "state.hds"

type storeSet struct {
	containers container.Store
	recipes    recipe.Store
	statePath  string
	readState  func(path string) ([]byte, error)
	writeState func(path string, data []byte, perm os.FileMode) error
}

// stores mirrors the library's store assembly (plain file stores, or
// one simulated-remote stack each for containers, recipes and state),
// with every store and state hook wrapped. The one difference: the
// remote stacks report to a private metrics bundle, which counts the
// read cache's hits and misses.
func (t *tracedRound) stores(dir string) (storeSet, error) {
	rec := &t.rec
	set := storeSet{
		statePath:  filepath.Join(dir, stateFileName),
		readState:  os.ReadFile,
		writeState: durable.WriteFileAtomic,
	}
	if !t.spec.remote {
		cs, err := container.NewFileStore(filepath.Join(dir, "containers"))
		if err != nil {
			return storeSet{}, err
		}
		rs, err := recipe.NewFileStore(filepath.Join(dir, "recipes"))
		if err != nil {
			return storeSet{}, err
		}
		set.containers, set.recipes = cs, rs
	} else {
		b := t.spec.config(dir).Backend
		stack := func(sub string, seedOffset int64, withCache bool) (backend.Backend, error) {
			base, err := backend.NewLocal(filepath.Join(dir, "remote", sub))
			if err != nil {
				return nil, err
			}
			opts := backend.StackOptions{
				Sim: backend.SimOptions{
					Latency:      b.Latency,
					BandwidthBps: b.BandwidthMBps * (1 << 20),
					ErrRate:      b.ErrRate,
					Seed:         b.Seed + seedOffset,
					SleepScale:   b.SleepScale,
				},
				Retry:   backend.RetryOptions{Tries: b.Retries, MinDelay: b.RetryMinDelay, Seed: b.Seed + seedOffset},
				RateBps: b.RateLimitMBps * (1 << 20),
				Metrics: t.backend,
			}
			if withCache && b.CacheMB > 0 {
				opts.CacheDir = filepath.Join(dir, "cache")
				opts.CacheBytes = int64(b.CacheMB) << 20
			}
			top, sim, err := backend.NewStack(base, opts)
			if err != nil {
				return nil, err
			}
			t.sims = append(t.sims, sim)
			return top, nil
		}
		cb, err := stack("containers", 0, true)
		if err != nil {
			return storeSet{}, err
		}
		rb, err := stack("recipes", 1, false)
		if err != nil {
			return storeSet{}, err
		}
		sb, err := stack("state", 2, false)
		if err != nil {
			return storeSet{}, err
		}
		set.containers, set.recipes = backend.NewContainerStore(cb), backend.NewRecipeStore(rb)
		set.statePath = filepath.Join(dir, "remote", "state", stateFileName)
		set.readState = func(path string) ([]byte, error) {
			data, err := sb.Get(context.Background(), stateFileName)
			if errors.Is(err, backend.ErrNotFound) {
				return nil, fmt.Errorf("state %s: %w", path, fs.ErrNotExist)
			}
			return data, err
		}
		set.writeState = func(_ string, data []byte, _ os.FileMode) error {
			return sb.Put(context.Background(), stateFileName, data)
		}
	}
	read, write := set.readState, set.writeState
	set.readState = func(path string) ([]byte, error) {
		sp := rec.span("state.read")
		data, err := read(path)
		sp.SetAttr("bytes", int64(len(data)))
		endSpan(sp, err)
		return data, err
	}
	set.writeState = func(path string, data []byte, perm os.FileMode) error {
		sp := rec.span("state.write")
		sp.SetAttr("bytes", int64(len(data)))
		err := write(path, data, perm)
		endSpan(sp, err)
		return err
	}
	set.containers = &tracedContainers{inner: set.containers, rec: rec}
	set.recipes = &tracedRecipes{inner: set.recipes, rec: rec}
	return set, nil
}

// observeVersion runs the isolated chunker and fingerprint passes over
// one version's bytes: the work the backup pipeline does first, timed
// on its own.
func (s *tracedSystem) observeVersion(data []byte) error {
	start := time.Now()
	c, err := chunker.New(chunker.TTTD, bytes.NewReader(data), chunker.DefaultParams())
	if err != nil {
		return err
	}
	var sizes []int
	for {
		chunk, err := c.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		sizes = append(sizes, len(chunk))
	}
	mid := time.Now()
	off := 0
	for _, n := range sizes {
		fpSink = fp.Of(data[off : off+n])
		off += n
	}
	s.t.chunkTime += mid.Sub(start)
	s.t.fpTime += time.Since(mid)
	s.t.passBytes += uint64(len(data))
	if off != len(data) {
		return fmt.Errorf("chunker pass covered %d of %d bytes", off, len(data))
	}
	return nil
}

// fpSink keeps the isolated fingerprint pass's results live.
var fpSink fp.FP

func (s *tracedSystem) backup(ctx context.Context, data []byte) (out backupOut, err error) {
	op := s.t.rec.begin("backup")
	rep, err := s.eng.Backup(ctx, &tracedReader{r: bytes.NewReader(data), rec: &s.t.rec})
	if eerr := s.t.rec.end(op); err == nil {
		err = eerr
	}
	if err != nil {
		return out, err
	}
	t := s.t
	t.dedupTime += rep.Duration
	t.migrateTime += rep.MigrateDuration
	t.recipeUpdateTime += rep.RecipeUpdateDuration
	t.indexLookups += rep.IndexStats.Lookups
	t.indexHits += rep.IndexStats.CacheHits
	t.diskLookups += rep.IndexStats.DiskLookups
	t.rewrittenBytes += rep.RewriteStats.RewrittenBytes
	if s.ix != nil {
		t.indexMem = max(t.indexMem, s.ix.MemoryBytes())
	}
	return backupOut{logical: rep.LogicalBytes, stored: rep.StoredBytes, chunks: rep.Chunks, unique: rep.UniqueChunks}, nil
}

func (s *tracedSystem) restore(ctx context.Context, version int, w io.Writer) (out restoreOut, err error) {
	op := s.t.rec.begin("restore")
	rep, err := s.eng.Restore(ctx, version, &tracedWriter{w: w, rec: &s.t.rec})
	if eerr := s.t.rec.end(op); err == nil {
		err = eerr
	}
	if err != nil {
		return out, err
	}
	t := s.t
	t.reads += rep.Stats.ContainerReads
	t.cacheHits += rep.Stats.CacheHits
	t.chunks += rep.Stats.Chunks
	t.flattenTime += rep.RecipeUpdateDuration
	if version == t.spec.versions {
		t.readsLatest = rep.Stats.ContainerReads
	}
	return restoreOut{bytes: rep.Stats.BytesRestored, reads: rep.Stats.ContainerReads}, nil
}

func (s *tracedSystem) del(version int) error {
	op := s.t.rec.begin("delete")
	rep, err := s.eng.Delete(version)
	if eerr := s.t.rec.end(op); err == nil {
		err = eerr
	}
	if err != nil {
		return err
	}
	s.t.chunksScanned += rep.ChunksScanned
	s.t.containersRewritten += rep.ContainersRewritten
	return nil
}

// endSpan marks a failed call and ends its span.
func endSpan(sp *obs.Span, err error) {
	if err != nil {
		sp.SetAttr("error", 1)
	}
	sp.End()
}

type tracedContainers struct {
	inner container.Store
	rec   *recorder
}

func (s *tracedContainers) Put(c *container.Container) error {
	sp := s.rec.span("container.put")
	sp.SetAttr("bytes", int64(c.DataSize()))
	err := s.inner.Put(c)
	endSpan(sp, err)
	return err
}

func (s *tracedContainers) Get(id container.ID) (*container.Container, error) {
	sp := s.rec.span("container.get")
	c, err := s.inner.Get(id)
	if err == nil {
		sp.SetAttr("bytes", int64(c.DataSize()))
	}
	endSpan(sp, err)
	return c, err
}

func (s *tracedContainers) Delete(id container.ID) error {
	sp := s.rec.span("container.delete")
	err := s.inner.Delete(id)
	endSpan(sp, err)
	return err
}

func (s *tracedContainers) Has(id container.ID) (bool, error) {
	sp := s.rec.span("container.has")
	ok, err := s.inner.Has(id)
	endSpan(sp, err)
	return ok, err
}

func (s *tracedContainers) IDs() ([]container.ID, error) {
	sp := s.rec.span("container.ids")
	ids, err := s.inner.IDs()
	endSpan(sp, err)
	return ids, err
}

func (s *tracedContainers) Len() (int, error) {
	sp := s.rec.span("container.len")
	n, err := s.inner.Len()
	endSpan(sp, err)
	return n, err
}

func (s *tracedContainers) Stats() container.StoreStats { return s.inner.Stats() }
func (s *tracedContainers) ResetStats()                 { s.inner.ResetStats() }

type tracedRecipes struct {
	inner recipe.Store
	rec   *recorder
}

func (s *tracedRecipes) Put(r *recipe.Recipe) error {
	sp := s.rec.span("recipe.put")
	err := s.inner.Put(r)
	endSpan(sp, err)
	return err
}

func (s *tracedRecipes) Get(version int) (*recipe.Recipe, error) {
	sp := s.rec.span("recipe.get")
	r, err := s.inner.Get(version)
	endSpan(sp, err)
	return r, err
}

func (s *tracedRecipes) Delete(version int) error {
	sp := s.rec.span("recipe.delete")
	err := s.inner.Delete(version)
	endSpan(sp, err)
	return err
}

func (s *tracedRecipes) Has(version int) (bool, error) {
	sp := s.rec.span("recipe.has")
	ok, err := s.inner.Has(version)
	endSpan(sp, err)
	return ok, err
}

func (s *tracedRecipes) Versions() ([]int, error) {
	sp := s.rec.span("recipe.versions")
	vs, err := s.inner.Versions()
	endSpan(sp, err)
	return vs, err
}

func (s *tracedRecipes) Len() (int, error) {
	sp := s.rec.span("recipe.len")
	n, err := s.inner.Len()
	endSpan(sp, err)
	return n, err
}

// tracedCache times the restore policy and hands it a fetcher that
// times how long the policy waits for each container.
type tracedCache struct {
	inner restorecache.Cache
	rec   *recorder
}

func (c *tracedCache) Name() string { return c.inner.Name() }

func (c *tracedCache) Restore(ctx context.Context, entries []recipe.Entry, fetch restorecache.Fetcher, w io.Writer) (restorecache.Stats, error) {
	sp := c.rec.span("restorecache.restore")
	st, err := c.inner.Restore(ctx, entries, &tracedFetcher{inner: fetch, rec: c.rec, parent: sp}, w)
	endSpan(sp, err)
	return st, err
}

type tracedFetcher struct {
	inner  restorecache.Fetcher
	rec    *recorder
	parent *obs.Span
}

func (f *tracedFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	sp := f.rec.child("restorecache.fetch_wait", f.parent)
	c, err := f.inner.Get(ctx, id)
	endSpan(sp, err)
	return c, err
}

type tracedIndex struct {
	inner index.Index
	rec   *recorder
}

func (x *tracedIndex) Name() string { return x.inner.Name() }

func (x *tracedIndex) Dedup(seg []index.ChunkRef) []index.Result {
	sp := x.rec.span("index.dedup")
	out := x.inner.Dedup(seg)
	sp.End()
	return out
}

func (x *tracedIndex) Commit(seg []index.ChunkRef, cids []container.ID) {
	sp := x.rec.span("index.commit")
	x.inner.Commit(seg, cids)
	sp.End()
}

func (x *tracedIndex) EndVersion() {
	sp := x.rec.span("index.end_version")
	x.inner.EndVersion()
	sp.End()
}

func (x *tracedIndex) Stats() index.Stats { return x.inner.Stats() }
func (x *tracedIndex) MemoryBytes() int64 { return x.inner.MemoryBytes() }

// tracedReader times the engine's reads of the backup input.
type tracedReader struct {
	r   io.Reader
	rec *recorder
}

func (r *tracedReader) Read(p []byte) (int, error) {
	sp := r.rec.span("input.read")
	n, err := r.r.Read(p)
	sp.SetAttr("bytes", int64(n))
	sp.End()
	return n, err
}

// tracedWriter times the engine's writes of restored bytes.
type tracedWriter struct {
	w   io.Writer
	rec *recorder
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	sp := w.rec.span("output.write")
	sp.SetAttr("bytes", int64(len(p)))
	n, err := w.w.Write(p)
	endSpan(sp, err)
	return n, err
}
