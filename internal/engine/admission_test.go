package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// within runs fn on its own goroutine and fails the test if fn has not
// returned after d: an admission wedge must fail the test, not hang the
// suite. fn reports through t.Error, never t.Fatal.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("admission wedged: still blocked after %v", d)
	}
}

// pooledBytes sums the arenas of the ledger's idle shards.
func pooledBytes(eng *Engine) (n int64) {
	eng.ledger.mu.Lock()
	defer eng.ledger.mu.Unlock()
	for size, stack := range eng.ledger.idle {
		n += int64(size) * int64(len(stack))
	}
	return n
}

// cachedTapeBytes sums tape.MemBytes over the engine's cached tapes.
func cachedTapeBytes(eng *Engine) (n int64) {
	eng.ledger.mu.Lock()
	defer eng.ledger.mu.Unlock()
	for _, ct := range eng.ledger.tapes {
		n += int64(ct.t.MemBytes())
	}
	return n
}

// TestReserveThrottlesAdmission: with the cap at 1.5 shards, at most
// one 1 MiB shard may be admitted at a time, so concurrency observed
// inside consume never exceeds 1 even with 8 goroutines submitting.
func TestReserveThrottlesAdmission(t *testing.T) {
	const shard = 1 << 20
	eng := New(8).SetMaxHeapBytes(shard * 3 / 2)
	job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: shard}
	var cur, peak atomic.Int64
	within(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 16; j++ {
					eng.ExecRelease(job, func(r Result) {
						if r.Err != nil {
							t.Error(r.Err)
						}
						if c := cur.Add(1); c > peak.Load() {
							peak.Store(c)
						}
						cur.Add(-1)
					})
				}
			}()
		}
		wg.Wait()
	})
	if p := peak.Load(); p > 1 {
		t.Fatalf("ledger admitted %d concurrent shards under a 1.5-shard cap", p)
	}
	// One shard fits at a time, so exactly one is pooled, beside the tape.
	if got, want := eng.ReservedBytes(), shard+cachedTapeBytes(eng); got != want || eng.ledger.idleCount != 1 {
		t.Fatalf("quiescent reserve %d (want %d), pooled %d (want 1)", got, want, eng.ledger.idleCount)
	}
}

// TestReserveAdmitsOversizedJobAlone: a job larger than the cap runs
// alone rather than deadlocking, and its shard is not kept afterwards —
// an idle shard never holds the ledger over the cap.
func TestReserveAdmitsOversizedJobAlone(t *testing.T) {
	eng := New(4).SetMaxHeapBytes(1 << 20) // cap far below the 512 MiB default arena
	within(t, 60*time.Second, func() {
		eng.ExecRelease(Job{Workload: "compress", Size: 1, Collector: "cg"}, func(r Result) {
			if r.Err != nil {
				t.Error(r.Err)
			}
			if got := eng.ReservedBytes(); got != DemographicsArena {
				t.Errorf("oversized cell runs with %d reserved, want its own %d", got, DemographicsArena)
			}
		})
	})
	if got := eng.ReservedBytes(); got != 0 || eng.Tapes() != 0 || eng.ledger.idleCount != 0 {
		t.Fatalf("after the oversized cell: %d reserved, %d tapes, %d pooled; want all 0",
			got, eng.Tapes(), eng.ledger.idleCount)
	}
}

func TestEngineRunUnderMemoryCap(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg"},
		{Workload: "jess", Size: 1, Collector: "cg"},
	}
	instr := func(eng *Engine) []uint64 {
		out := make([]uint64, len(jobs))
		eng.RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				t.Errorf("cell %d: %v", i, r.Err)
				return
			}
			out[i] = r.RT.Instr()
		})
		return out
	}
	var capped []uint64
	within(t, 60*time.Second, func() {
		// Admits exactly one demographics arena at a time.
		capped = instr(New(4).SetMaxHeapBytes(DemographicsArena + DemographicsArena/2))
	})
	free := instr(New(1))
	for i := range jobs {
		if capped[i] != free[i] {
			t.Fatalf("cell %d diverged under the memory cap", i)
		}
	}
}

// TestOversizedCellEvictsTightShardAndTape is the first admission
// wedge: two tight-heap runs of a row leave a pooled shard and a cached
// tape behind, and a default-arena cell larger than the cap must evict both
// and run alone. Evicting the shard but not the tape left reserved
// bytes that nothing could release, so the oversized escape never fired.
func TestOversizedCellEvictsTightShardAndTape(t *testing.T) {
	eng := New(1).SetMaxHeapBytes(256 << 20)
	spec, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	tight := int64(spec.HeapBytes(1))
	within(t, 60*time.Second, func() {
		// The row's second run records its tape.
		for range 2 {
			if err := execErr(eng, Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: TightHeap}); err != nil {
				t.Error(err)
			}
		}
	})
	tb := cachedTapeBytes(eng)
	if got, want := eng.ReservedBytes(), tight+tb; got != want || eng.Tapes() != 1 || tb == 0 {
		t.Fatalf("after the tight cell: reserved %d, want %d (tight shard + %d tape bytes), %d tapes",
			got, want, tb, eng.Tapes())
	}
	within(t, 60*time.Second, func() {
		eng.ExecRelease(Job{Workload: "compress", Size: 1, Collector: "cg"}, func(r Result) {
			if r.Err != nil {
				t.Error(r.Err)
			}
			if got := eng.ReservedBytes(); got != DemographicsArena {
				t.Errorf("oversized cell runs with %d reserved, want only its own %d", got, DemographicsArena)
			}
		})
	})
	if got := eng.ReservedBytes(); got != 0 || eng.Tapes() != 0 || eng.ledger.idleCount != 0 {
		t.Fatalf("after the oversized cell: %d reserved, %d tapes, %d pooled; want all 0",
			got, eng.Tapes(), eng.ledger.idleCount)
	}
}

// TestCellEvictsCachedTapeToFitCap is the second admission wedge: a
// job that fits the cap alone but not beside a cached tape must evict
// the tape rather than wait for a release that never comes. Two runs of
// the row seed the tape.
func TestCellEvictsCachedTapeToFitCap(t *testing.T) {
	const cap = 64 << 20
	eng := New(1).SetMaxHeapBytes(cap)
	within(t, 60*time.Second, func() {
		// The row's second run records its tape.
		for range 2 {
			if err := execErr(eng, Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 1 << 22}); err != nil {
				t.Error(err)
			}
		}
	})
	tb := cachedTapeBytes(eng)
	if got, want := eng.ReservedBytes(), 1<<22+tb; got != want || eng.Tapes() != 1 || tb == 0 {
		t.Fatalf("after the small cell: reserved %d, want %d (4 MiB shard + %d tape bytes), %d tapes",
			got, want, tb, eng.Tapes())
	}
	within(t, 60*time.Second, func() {
		eng.ExecRelease(Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: cap}, func(r Result) {
			if r.Err != nil {
				t.Error(r.Err)
			}
			// Its own recording could not be cached beside a full-cap arena.
			if got := eng.ReservedBytes(); got != cap || eng.Tapes() != 0 {
				t.Errorf("full-cap cell runs with %d reserved and %d tapes, want %d and 0", got, eng.Tapes(), cap)
			}
		})
	})
	if got := eng.ReservedBytes(); got != cap || pooledBytes(eng) != cap || eng.Tapes() != 0 {
		t.Fatalf("after the full-cap cell: reserved %d, pooled %d, %d tapes; want %d, %d, 0",
			got, pooledBytes(eng), eng.Tapes(), cap, cap)
	}
}

// TestMemoryCapStressWithTapes: 8 workers, mixed arena sizes and
// workloads, tape cache on. Every consume samples the reserve against
// the cap, and once quiescent the reserve is exactly the pooled arenas
// plus the cached tapes.
func TestMemoryCapStressWithTapes(t *testing.T) {
	const cap = 5 << 22 // 20 MiB: forces waiting and both kinds of eviction
	eng := New(8).SetMaxHeapBytes(cap)
	sizes := []int{1 << 21, 1 << 22, 3 << 21, 1 << 23} // 2, 4, 6, 8 MiB
	rows := []string{"compress", "tape-count", "jess"}
	jobs := make([]Job, 48)
	for i := range jobs {
		jobs[i] = Job{Workload: rows[i%len(rows)], Size: 1, Collector: "cg", HeapBytes: sizes[i%len(sizes)]}
	}
	var over atomic.Int64
	within(t, 120*time.Second, func() {
		eng.RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				t.Errorf("job %d (%s, %d bytes) failed under the cap: %v", i, jobs[i].Workload, jobs[i].HeapBytes, r.Err)
			}
			if got := eng.ReservedBytes(); got > cap {
				over.Store(got)
			}
		})
	})
	if got := over.Load(); got != 0 {
		t.Fatalf("ledger over-admitted: observed %d reserved bytes under a %d cap", got, int64(cap))
	}
	if got, want := eng.ReservedBytes(), pooledBytes(eng)+cachedTapeBytes(eng); got != want || eng.ledger.busy != 0 {
		t.Fatalf("quiescent reserve %d != pooled + tape bytes %d (busy %d)", got, want, eng.ledger.busy)
	}
}
