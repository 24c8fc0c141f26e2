// Command hsbench is the repository's benchmark. It backs up version
// chains, reopens the store, restores and verifies every retained
// version and expires old ones, all through the public hidestore API,
// and prints the end-to-end metrics. With -trace 1 it runs rounds in
// pairs instead, one through the public API and one on the same engine
// rebuilt from internal constructors with a timing wrapper around every
// interface the engine takes, and prints per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it and
// cmd/tracereport from source first:
//
//	bash hsbench/run.sh --workload kernel-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is 0 only when
// every operation succeeded and verified.
//
// # Load
//
// One client in a closed loop: each operation starts after the previous
// one returns (hidestore.System serializes operations anyway). A round
// has three phases: (1) back up a version chain, each version generated
// into memory and hashed with SHA-256 before its clock starts; (2) close
// and reopen the system, as every hidestore CLI command does; (3) restore
// every retained version oldest first, each checked against its SHA-256
// after its clock stops. Expiries follow the workload's retention. A
// mismatch or an error counts as a failed operation and fails the run.
//
// A run starts with an untimed two-version warm-up round, then repeats
// rounds while another fits in -seconds (an untraced run makes at least
// three). Each round backs up its own chain, generated from a seed
// derived from -seed and the round's number, so the same seed gives the
// same inputs. Backup and restore throughput divide a chain's bytes by
// the sum, over the chain's steps, of each step's median time across
// rounds, so one disturbed round moves no figure; delete and set-up
// times are medians too. speed_factor and space_per_live_byte cover the
// first three rounds, so they repeat exactly for a seed.
//
// # Workloads
//
// All use TTTD chunking, 4 MB containers and the FAA restore cache, and
// store on a local directory, so the persistence layer is measured.
//
//   - kernel-local: HiDeStore on the kernel preset (about 91 % dedup),
//     12 versions of 16 MB, well under FAA's 64 MB assembly area; the
//     oldest 6 expire at the end. Backup time is mostly chunking, SHA-1
//     and fingerprint-cache probes, with few container writes and little
//     migration; restores read compact recent layouts, the paper's best
//     case and the case where the cache fits.
//   - gcc-retention: HiDeStore on the gcc preset (about 79 % dedup), 12
//     versions of 16 MB under rolling retention of 5: after each backup
//     past the fifth, the oldest version is deleted. The most unique
//     bytes per version load container writes, cold-chunk migration,
//     sparse-container merges and recipe updates; deletes run between
//     writes; old retained versions restore from archival containers.
//   - macos-remote: HiDeStore with Window 2 (the macOS three-table cache)
//     on the remote backend with real per-operation latency (2 ms, 400
//     MB/s, no injected faults, so no retry backoff enters the timings),
//     two restore workers and a 96 MB persistent read cache, smaller than
//     the stored containers. Five versions of 72 MB, larger than FAA's
//     area, force multi-area assembly; container reads are the restore's
//     cost, so prefetch, parallel assembly and the read cache do the work.
//     The oldest 3 expire at the end.
//   - gcc-ddfs: OpenBaseline{Index: "ddfs", Rewriter: "capping"} on the
//     gcc-retention chains: the paper's comparison row, and the only
//     workload that runs the dedup, index and rewrite layers. It expires
//     its oldest 7 versions after the restores rather than between
//     backups, because of the first defect below.
//
// Known defects of the baseline engine, left for a later change:
//
//   - A Delete between backups loses data. Backing up 16 gcc versions of
//     24 MB and deleting the oldest after each backup past the sixth, the
//     restore of version 8 fails ("chunk not found in container 1") once
//     version 2 is deleted, and so does every later version's, in memory
//     and on disk alike. Deleting the same versions after the last backup
//     loses nothing. The cause is not diagnosed yet.
//   - OpenBaseline on an existing directory restarts at version 1 with an
//     empty index and overwrites version 1's data on the next backup. No
//     workload backs up after a reopen, so gcc-ddfs is unaffected.
//
// # End-to-end metrics (-trace 0)
//
//   - backup_mb_s: logical MiB over the wall time of Backup calls.
//   - restore_mb_s: MiB restored and verified over the wall time of
//     Restore calls.
//   - speed_factor: MiB restored per container read, over all restores
//     (the paper's metric).
//   - space_per_live_byte: container, recipe and state bytes on disk
//     (read cache excluded) over the logical bytes of retained versions,
//     at the end of a round.
//   - delete_ms: median wall time of a Delete call.
//   - setup_s: median time of an open that creates a store plus median
//     time of a reopen (state load and recovery), over every round; each
//     round creates three stores (two on side directories, dropped at
//     once) and reopens its own five times before the restore phase.
//   - peak_heap_mb: highest live heap, as of the latest collection,
//     sampled during timed operations. It includes the benchmark's two
//     version buffers (1.5 times the version size each).
//   - op_success_rate: operations that succeeded and verified over
//     operations attempted; the complement of the error rate, so that
//     the metric is never 0.
//
// # Per-layer metrics (-trace 1), the metric each should move, and where
//
//	metric                                layer         should move                     on
//	chunker.mb_s, fp.mb_s                 chunker, fp   backup_mb_s, never restore      kernel-local
//	core.dedup_ms                         core          backup_mb_s                     kernel-local
//	core.migrate_ms, .recipe_update_ms    core          backup_mb_s                     gcc-retention
//	core.index_lookups, .index_hits       core          backup_mb_s                     kernel-local
//	core.state_write_ms, .state_bytes,    core          backup_mb_s, setup_s            kernel-local, macos-remote
//	  .state_read_ms
//	core.flatten_ms                       core          restore_mb_s                    gcc-retention
//	container.{put,get,delete}_n,         container     backup_mb_s, restore_mb_s,      gcc-retention
//	  .{put,get}_mb, .*_ms                              delete_ms, space_per_live_byte
//	recipe.{put,get}_{n,ms}               recipe        restore_mb_s, backup_mb_s       gcc-retention
//	restorecache.restore_ms,              restorecache  restore_mb_s, speed_factor      macos-remote
//	  .fetch_wait_ms, .reads,
//	  .hit_ratio, .reads_latest
//	restorecache.wasted_reads             restorecache  restore_mb_s                    macos-remote
//	backend.remote_ops, .remote_mb,       backend       restore_mb_s, setup_s           macos-remote
//	  .cache_hit_ratio
//	index.lookup_ms, .disk_lookups,       index         backup_mb_s, peak_heap_mb       gcc-ddfs
//	  .mem_mb
//	rewrite.rewritten_mb                  rewrite       space_per_live_byte,            gcc-ddfs
//	                                                    speed_factor
//	dedup.chunks_scanned,                 dedup         delete_ms                       gcc-ddfs
//	  .containers_rewritten
//	input.read_ms, output.write_ms        benchmark I/O none; shows the clock excludes  all
//	                                                    the generator and the verifier
//	backup.unattributed_ms,               budget        the part of each operation no   all
//	  restore.unattributed_ms                           layer span covers
//	tracing.backup_overhead_pct,          benchmark     traced against untraced         all
//	  .restore_overhead_pct                             throughput of the same chains
//
// Each wrapped call records one span, parented to its operation's span
// (a fetch wait to the restore policy's span); each operation is one
// trace. Spans stay in memory until the run ends, are then written to
// .bench_build/work/<workload>-trace.jsonl in cmd/tracereport's JSONL
// schema, and tracereport's validator must accept the file. A *_ms metric
// is the summed duration of its spans, except restorecache.restore_ms,
// which is self time: span duration minus the part its children cover.
// An operation's unattributed time is its span's self time, so it and
// the union of its layer spans add up to its wall time. Values are per
// round, averaged over the run's traced rounds. Each traced round must
// reproduce its untraced partner's chunk counts, stored bytes, container
// reads and on-disk footprint exactly, or the run fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	work        string
	tracereport string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: kernel-local, gcc-retention, macos-remote or gcc-ddfs")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "run rounds until this many seconds have passed")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from traced rounds, 0 end-to-end metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for the stores")
	flag.StringVar(&o.tracereport, "tracereport", "", "tracereport binary that validates the written trace (-trace 1)")
	flag.Parse()
	o.trace = traceFlag == 1
	s, err := findSpec(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), s, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsbench:", err)
		res.Correct = false
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "hsbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const mib = 1 << 20

// exactRounds is how many rounds an untraced run makes at least. Every
// round backs up its own chain, so timings, medians over rounds, average
// over the chains' differences rather than depend on one chain's; the
// deterministic metrics cover the first exactRounds chains, so they
// repeat exactly for a seed.
const exactRounds = 3

func run(ctx context.Context, s spec, o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return res, err
	}
	work, err := os.MkdirTemp(o.work, s.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(work)
	heap := startHeapSampler()
	defer heap.close()

	round := func(name string, open opener, seed int64) (roundResult, error) {
		r, err := oneRound(ctx, s, seed, open, filepath.Join(work, name), heap)
		logRound(name, r)
		res.Attempted += r.attempted
		res.Failed += r.failed
		return r, err
	}
	// Data that earlier work (a build, a previous run) left unflushed is
	// written out first, and a short warm-up round grows the heap and
	// fills the page cache before anything is timed; its results are
	// dropped.
	syscall.Sync()
	warm := s
	warm.versions, warm.retain, warm.expire = 2, 0, 0
	if _, err := oneRound(ctx, warm, o.seed, openPublic(warm), filepath.Join(work, "warm-up"), heap); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}

	var plain, traced []roundResult
	var layers []map[string]float64
	var rec []*tracedRound
	minRounds := exactRounds
	if o.trace {
		minRounds = 1
	}
	// Rounds stop before one more would overrun -seconds, judged by
	// the length of the last one.
	start, last := time.Now(), time.Duration(0)
	for i := 0; i < minRounds || time.Since(start)+last <= time.Duration(o.seconds*float64(time.Second)); i++ {
		began := time.Now()
		seed := o.seed<<16 + int64(i)
		if !o.trace {
			r, err := round(fmt.Sprintf("round-%d", i), openPublic(s), seed)
			if err != nil {
				return res, err
			}
			plain = append(plain, r)
			last = time.Since(began)
			continue
		}
		// A pair runs the same inputs through the public API and the
		// traced engine; pairs alternate which side runs first.
		t := newTracedRound(s)
		var r, tr roundResult
		if i%2 == 0 {
			if r, err = round(fmt.Sprintf("round-%d", i), openPublic(s), seed); err == nil {
				tr, err = round(fmt.Sprintf("traced-%d", i), t.open, seed)
			}
		} else {
			if tr, err = round(fmt.Sprintf("traced-%d", i), t.open, seed); err == nil {
				r, err = round(fmt.Sprintf("round-%d", i), openPublic(s), seed)
			}
		}
		if err != nil {
			return res, err
		}
		plain, traced = append(plain, r), append(traced, tr)
		if d := diffShape(r.shape, tr.shape); d != "" {
			res.Failed++
			return res, fmt.Errorf("traced engine differs from the public one: %s", d)
		}
		m, err := t.metrics()
		if err != nil {
			return res, err
		}
		layers = append(layers, m)
		rec = append(rec, t)
		last = time.Since(began)
	}
	res.Correct = res.Failed == 0
	if !o.trace {
		res.Metrics = endToEnd(plain)
		return res, nil
	}
	res.Metrics = perLayer(layers, plain, traced)
	if err := validateTrace(o.tracereport, filepath.Join(o.work, s.name+"-trace.jsonl"), rec); err != nil {
		res.Correct = false
		return res, err
	}
	return res, nil
}

// oneRound runs a round on a fresh directory and removes it afterwards.
// The removal is flushed to disk before the round returns, so it does
// not queue behind the next round's durable writes.
func oneRound(ctx context.Context, s spec, seed int64, open opener, dir string, heap *heapSampler) (roundResult, error) {
	runtime.GC()
	defer syscall.Sync()
	defer os.RemoveAll(dir)
	return runRound(ctx, s, seed, open, dir, heap)
}

// logRound reports a round's timings on standard error.
func logRound(name string, r roundResult) {
	b, bd := total(r.backups)
	rs, rd := total(r.restores)
	var deletes []float64
	for _, d := range r.deletes {
		deletes = append(deletes, ms(int64(d)))
	}
	fmt.Fprintf(os.Stderr, "%s: backup %.1f MiB/s, restore %.1f MiB/s, delete %.2f ms, setup %.4f s, peak heap %.1f MiB\n",
		name, float64(b)/mib/bd.Seconds(), float64(rs)/mib/rd.Seconds(), median(deletes), setupTime([]roundResult{r}), float64(r.peakHeap)/mib)
}

// diffShape names the first deterministic outcome on which two rounds
// disagree, or returns "".
func diffShape(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("public %q, traced %q", x, y)
		}
	}
	return ""
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chainRate is a round's chain of operations (picked from each round)
// in MiB over the sum of each operation's median time across rounds: an
// interruption that slows one round moves no operation's median.
func chainRate(rs []roundResult, pick func(roundResult) []timedOp) float64 {
	if len(rs) == 0 {
		return 0
	}
	bytes, _ := total(pick(rs[0]))
	var sum float64
	for k := range pick(rs[0]) {
		times := make([]float64, 0, len(rs))
		for _, r := range rs {
			times = append(times, pick(r)[k].d.Seconds())
		}
		sum += median(times)
	}
	return ratio(float64(bytes)/mib, sum)
}

func backups(r roundResult) []timedOp  { return r.backups }
func restores(r roundResult) []timedOp { return r.restores }

// setupTime is the median time of the opens that create a store plus
// the median time of the reopens, over the rounds' opens.
func setupTime(rs []roundResult) float64 {
	var creates, reopens []float64
	for _, r := range rs {
		for _, d := range r.creates {
			creates = append(creates, d.Seconds())
		}
		for _, d := range r.reopens {
			reopens = append(reopens, d.Seconds())
		}
	}
	return median(creates) + median(reopens)
}

func endToEnd(rs []roundResult) map[string]metric {
	var deletes, heap []float64
	attempted, failed := 0, 0
	for _, r := range rs {
		for _, d := range r.deletes {
			deletes = append(deletes, ms(int64(d)))
		}
		heap = append(heap, float64(r.peakHeap)/mib)
		attempted += r.attempted
		failed += r.failed
	}
	// The deterministic metrics cover each data set once.
	var restored, reads, space, live uint64
	for _, r := range rs[:min(exactRounds, len(rs))] {
		b, _ := total(r.restores)
		restored += b
		reads += r.reads
		space += r.spaceBytes
		live += r.liveBytes
	}
	return map[string]metric{
		"backup_mb_s":         {chainRate(rs, backups), "MiB/s"},
		"restore_mb_s":        {chainRate(rs, restores), "MiB/s"},
		"speed_factor":        {ratio(float64(restored)/mib, float64(reads)), "MiB/read"},
		"space_per_live_byte": {ratio(float64(space), float64(live)), "B/B"},
		"delete_ms":           {median(deletes), "ms"},
		"setup_s":             {setupTime(rs), "s"},
		"peak_heap_mb":        {median(heap), "MiB"},
		"op_success_rate":     {1 - ratio(float64(failed), float64(attempted)), "ratio"},
	}
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"chunker.mb_s": "MiB/s", "fp.mb_s": "MiB/s",
	"core.dedup_ms": "ms", "core.migrate_ms": "ms", "core.recipe_update_ms": "ms",
	"core.index_lookups": "count", "core.index_hits": "count",
	"core.state_write_ms": "ms", "core.state_bytes": "B", "core.state_read_ms": "ms",
	"core.flatten_ms": "ms",
	"container.put_n": "count", "container.put_mb": "MiB", "container.put_ms": "ms",
	"container.get_n": "count", "container.get_mb": "MiB", "container.get_ms": "ms",
	"container.delete_n": "count", "container.delete_ms": "ms",
	"recipe.put_n": "count", "recipe.put_ms": "ms", "recipe.get_n": "count", "recipe.get_ms": "ms",
	"restorecache.restore_ms": "ms", "restorecache.fetch_wait_ms": "ms",
	"restorecache.reads": "count", "restorecache.hit_ratio": "ratio",
	"restorecache.reads_latest": "count", "restorecache.wasted_reads": "count",
	"backend.remote_ops": "count", "backend.remote_mb": "MiB", "backend.cache_hit_ratio": "ratio",
	"index.lookup_ms": "ms", "index.disk_lookups": "count", "index.mem_mb": "MiB",
	"rewrite.rewritten_mb": "MiB",
	"dedup.chunks_scanned": "count", "dedup.containers_rewritten": "count",
	"input.read_ms": "ms", "output.write_ms": "ms",
	"backup.unattributed_ms": "ms", "restore.unattributed_ms": "ms",
	"tracing.backup_overhead_pct": "%", "tracing.restore_overhead_pct": "%",
}

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// metrics derives one traced round's per-layer values.
func (t *tracedRound) metrics() (map[string]float64, error) {
	b, err := t.rec.analyze()
	if err != nil {
		return nil, err
	}
	var remoteOps, remoteBytes uint64
	for _, sim := range t.sims {
		st := sim.Stats()
		remoteOps += st.Ops
		remoteBytes += st.Bytes
	}
	hits, misses := t.backend.CacheHits.Value(), t.backend.CacheMisses.Value()
	put, get, del := b.layer("container.put"), b.layer("container.get"), b.layer("container.delete")
	return map[string]float64{
		"chunker.mb_s":               ratio(float64(t.passBytes)/mib, t.chunkTime.Seconds()),
		"fp.mb_s":                    ratio(float64(t.passBytes)/mib, t.fpTime.Seconds()),
		"core.dedup_ms":              ms(int64(t.dedupTime)),
		"core.migrate_ms":            ms(int64(t.migrateTime)),
		"core.recipe_update_ms":      ms(int64(t.recipeUpdateTime)),
		"core.index_lookups":         float64(t.indexLookups),
		"core.index_hits":            float64(t.indexHits),
		"core.state_write_ms":        ms(b.layer("state.write").busy),
		"core.state_bytes":           float64(b.layer("state.write").bytes),
		"core.state_read_ms":         ms(b.layer("state.read").busy),
		"core.flatten_ms":            ms(int64(t.flattenTime)),
		"container.put_n":            float64(put.n),
		"container.put_mb":           float64(put.bytes) / mib,
		"container.put_ms":           ms(put.busy),
		"container.get_n":            float64(get.n),
		"container.get_mb":           float64(get.bytes) / mib,
		"container.get_ms":           ms(get.busy),
		"container.delete_n":         float64(del.n),
		"container.delete_ms":        ms(del.busy),
		"recipe.put_n":               float64(b.layer("recipe.put").n),
		"recipe.put_ms":              ms(b.layer("recipe.put").busy),
		"recipe.get_n":               float64(b.layer("recipe.get").n),
		"recipe.get_ms":              ms(b.layer("recipe.get").busy),
		"restorecache.restore_ms":    ms(b.layer("restorecache.restore").self),
		"restorecache.fetch_wait_ms": ms(b.layer("restorecache.fetch_wait").busy),
		"restorecache.reads":         float64(t.reads),
		"restorecache.hit_ratio":     ratio(float64(t.cacheHits), float64(t.chunks)),
		"restorecache.reads_latest":  float64(t.readsLatest),
		"restorecache.wasted_reads":  float64(b.layer("restore:container.get").n) - float64(t.reads),
		"backend.remote_ops":         float64(remoteOps),
		"backend.remote_mb":          float64(remoteBytes) / mib,
		"backend.cache_hit_ratio":    ratio(float64(hits), float64(hits+misses)),
		"index.lookup_ms":            ms(b.layer("index.dedup").busy),
		"index.disk_lookups":         float64(t.diskLookups),
		"index.mem_mb":               float64(t.indexMem) / mib,
		"rewrite.rewritten_mb":       float64(t.rewrittenBytes) / mib,
		"dedup.chunks_scanned":       float64(t.chunksScanned),
		"dedup.containers_rewritten": float64(t.containersRewritten),
		"input.read_ms":              ms(b.layer("input.read").busy),
		"output.write_ms":            ms(b.layer("output.write").busy),
		"backup.unattributed_ms":     ms(b.unattributed["backup"]),
		"restore.unattributed_ms":    ms(b.unattributed["restore"]),
	}, nil
}

// perLayer averages the traced rounds' per-layer values and adds the
// tracing overhead: how much slower traced rounds ran than their
// untraced partners, in percent of the untraced median throughput.
func perLayer(layers []map[string]float64, plain, traced []roundResult) map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits {
		var sum float64
		for _, m := range layers {
			sum += m[name]
		}
		out[name] = metric{ratio(sum, float64(len(layers))), unit}
	}
	overhead := func(pick func(roundResult) []timedOp) float64 {
		p, t := chainRate(plain, pick), chainRate(traced, pick)
		return 100 * ratio(p-t, p)
	}
	out["tracing.backup_overhead_pct"] = metric{overhead(backups), "%"}
	out["tracing.restore_overhead_pct"] = metric{overhead(restores), "%"}
	return out
}

// validateTrace writes every traced round's spans as one JSONL file and
// runs cmd/tracereport's validator on it.
func validateTrace(tracereport, path string, rounds []*tracedRound) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, t := range rounds {
		if _, err := f.Write(t.rec.jsonl()); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if tracereport == "" {
		return fmt.Errorf("no tracereport binary given to validate %s", path)
	}
	var stderr strings.Builder
	cmd := exec.Command(tracereport, path)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("tracereport rejects the trace: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return nil
}
