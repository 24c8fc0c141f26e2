package restorecache

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"hidestore/internal/container"
	"hidestore/internal/obs"
)

// gatedFetcher holds the reads of chosen containers until the test
// opens their gate (or the read's context ends), so a test decides which
// worker reads are in flight at each step instead of racing the pool.
type gatedFetcher struct {
	inner   Fetcher
	gates   map[container.ID]chan struct{}
	started chan container.ID // every Get, as it begins
	done    chan container.ID // every Get that reached the inner fetcher

	mu    sync.Mutex
	calls map[container.ID]int
}

func newGatedFetcher(inner Fetcher, held ...container.ID) *gatedFetcher {
	g := &gatedFetcher{
		inner:   inner,
		gates:   make(map[container.ID]chan struct{}),
		started: make(chan container.ID, 64),
		done:    make(chan container.ID, 64),
		calls:   make(map[container.ID]int),
	}
	for _, id := range held {
		g.gates[id] = make(chan struct{})
	}
	return g
}

func (g *gatedFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	g.mu.Lock()
	g.calls[id]++
	g.mu.Unlock()
	g.started <- id
	if gate, ok := g.gates[id]; ok {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c, err := g.inner.Get(ctx, id)
	g.done <- id
	return c, err
}

// release opens id's gate.
func (g *gatedFetcher) release(id container.ID) { close(g.gates[id]) }

// callsTo reports how many reads of id were issued.
func (g *gatedFetcher) callsTo(id container.ID) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls[id]
}

// waitFor blocks until every id has arrived on ch, in any order.
func waitFor(t *testing.T, ch <-chan container.ID, ids ...container.ID) {
	t.Helper()
	pending := make(map[container.ID]bool, len(ids))
	for _, id := range ids {
		pending[id] = true
	}
	deadline := time.After(10 * time.Second)
	for len(pending) > 0 {
		select {
		case got := <-ch:
			delete(pending, got)
		case <-deadline:
			t.Fatalf("containers %v never reached the fetcher", pending)
		}
	}
}

// waitGauge spins until the occupancy gauge reads want.
func waitGauge(t *testing.T, mx *obs.RestoreMetrics, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mx.PrefetchOccupancy.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("occupancy gauge = %d, never reached %d", mx.PrefetchOccupancy.Value(), want)
		}
		runtime.Gosched()
	}
}

// TestPrefetchDrainsSkippedPlanned: when the policy skips a planned
// container (all its chunks satisfied from cache) and requests a later
// one, the skipped item must not strand in the stash with its window
// occupancy held until Close. Regression test: before the drain, Get(3)
// after Get(1) left container 2's item in stash and the occupancy gauge
// at 1 for the rest of the restore. Here a worker has already claimed
// container 2's read when the policy skips it, so that read completes
// and its outcome is dropped.
func TestPrefetchDrainsSkippedPlanned(t *testing.T) {
	store, entries, _ := fixture(t, 3, 4, 256)
	reg := obs.NewRegistry()
	mx := obs.NewRestoreMetrics(reg)
	g := newGatedFetcher(StoreFetcher(store), 2)
	p := NewPrefetchFetcher(g, entries, 8)
	p.Observe(mx)
	defer p.Close()

	ctx := context.Background()
	if _, err := p.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// A worker holds container 2's read: the item is claimed before the
	// policy skips it.
	waitFor(t, g.started, 2)
	// Skip container 2 entirely: request 3 next, as a chunk cache that
	// already holds all of 2's chunks would.
	if _, err := p.Get(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if n := len(p.stash); n != 0 {
		t.Fatalf("stash holds %d stranded item(s) after skipping a planned container", n)
	}
	if n := p.outstanding.Load(); n != 0 {
		t.Fatalf("outstanding = %d before Close, want 0", n)
	}
	if v := mx.PrefetchOccupancy.Value(); v != 0 {
		t.Fatalf("occupancy gauge = %d before Close, want 0", v)
	}
	g.release(2)
	waitFor(t, g.done, 2)
	// A late request for the skipped container is no longer planned:
	// it reads through directly instead of scanning the drained queue.
	if _, err := p.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if p.planned[container.ID(2)] {
		t.Fatal("skipped container still marked planned after drain")
	}
	if reads := store.Stats().Reads; reads != 4 {
		t.Fatalf("store reads = %d, want 4 (3 planned + 1 read-through)", reads)
	}
	p.Close()
	if v := mx.PrefetchOccupancy.Value(); v != 0 {
		t.Fatalf("occupancy gauge = %d after Close, want 0", v)
	}
}

// TestPrefetchDrainAbandonsUnclaimed: a skipped container no worker has
// picked up yet is abandoned by the drain, so no read is ever issued for
// it, while a skipped one a worker already holds completes. One worker
// holds container 2's read, so 3 and 4 sit idle in the window when the
// policy skips 2 and 3 to request 4.
func TestPrefetchDrainAbandonsUnclaimed(t *testing.T) {
	store, entries, _ := fixture(t, 4, 4, 256)
	reg := obs.NewRegistry()
	mx := obs.NewRestoreMetrics(reg)
	g := newGatedFetcher(StoreFetcher(store), 2)
	p := NewPrefetchFetcher(g, entries, 8)
	p.workers = 1
	p.Observe(mx)
	defer p.Close()

	ctx := context.Background()
	if _, err := p.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, g.started, 2)
	waitGauge(t, mx, 3) // 2, 3 and 4 all dispatched
	// Release the worker only once Get(4) has drained 2 and 3: the drain
	// claims each item before returning its occupancy, so a zero gauge
	// means both claims are decided. (Past the deadline it releases
	// anyway, and the read counts below fail the test.)
	go func() {
		defer g.release(2)
		deadline := time.Now().Add(10 * time.Second)
		for mx.PrefetchOccupancy.Value() != 0 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}()
	if _, err := p.Get(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if n := len(p.stash); n != 0 {
		t.Fatalf("stash holds %d stranded item(s) after skipping planned containers", n)
	}
	if _, err := p.Get(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if n := g.callsTo(3); n != 1 {
		t.Fatalf("container 3 read %d times, want 1 (the read-through; its prefetch was abandoned)", n)
	}
	if reads := store.Stats().Reads; reads != 4 {
		t.Fatalf("store reads = %d, want 4 (1, the claimed 2, 4, and 3's read-through)", reads)
	}
	p.Close()
	if v := mx.PrefetchOccupancy.Value(); v != 0 {
		t.Fatalf("occupancy gauge = %d after Close, want 0", v)
	}
}

// TestPrefetchCloseZeroesGaugeAfterSkip: even when the drain is never
// triggered (the restore aborts right after the skip), Close returns all
// outstanding occupancy so the gauge reads 0 between restores. Close
// cancels both reads that workers hold and items no worker took.
func TestPrefetchCloseZeroesGaugeAfterSkip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		held    []container.ID
		calls   int // reads of 3 and 4 begun (and canceled at the gate)
	}{
		{"claimed", 0, []container.ID{2, 3, 4}, 1}, // a worker holds each read
		{"idle", 1, []container.ID{2}, 0},          // 3 and 4 wait for the one worker
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, entries, _ := fixture(t, 4, 4, 256)
			reg := obs.NewRegistry()
			mx := obs.NewRestoreMetrics(reg)
			g := newGatedFetcher(StoreFetcher(store), tc.held...)
			p := NewPrefetchFetcher(g, entries, 8)
			p.workers = tc.workers
			p.Observe(mx)
			if _, err := p.Get(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			waitFor(t, g.started, tc.held...)
			waitGauge(t, mx, 3)
			p.Close()
			if v := mx.PrefetchOccupancy.Value(); v != 0 {
				t.Fatalf("occupancy gauge = %d after Close, want 0", v)
			}
			if n := len(p.stash); n != 0 {
				t.Fatalf("stash holds %d item(s) after Close", n)
			}
			if reads := store.Stats().Reads; reads != 1 {
				t.Fatalf("store reads = %d after Close, want 1 (held reads canceled, idle items never read)", reads)
			}
			for _, id := range []container.ID{3, 4} {
				if n := g.callsTo(id); n != tc.calls {
					t.Fatalf("container %d read %d times, want %d", id, n, tc.calls)
				}
			}
		})
	}
}
