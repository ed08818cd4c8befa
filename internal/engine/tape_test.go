package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// tapeDriveCount counts how many times the counting workload's driver
// actually ran — replayed cells never touch it, which is the whole
// point of the cache.
var tapeDriveCount atomic.Int64

func init() {
	workload.Register(workload.Spec{
		Name:      "tape-count",
		Desc:      "test workload counting driver executions",
		Threads:   func(int) int { return 1 },
		HeapBytes: func(int) int { return 1 << 20 },
		Run: func(rt *vm.Runtime, size int) {
			tapeDriveCount.Add(1)
			c := rt.Heap.DefineClass(heap.Class{Name: "obj", Refs: 1, Data: 8})
			th := rt.NewThread(2)
			th.CallVoid(1, func(f *vm.Frame) {
				prev := f.MustNew(c)
				for i := 0; i < 40*size; i++ {
					o := f.MustNew(c)
					f.PutField(o, 0, prev)
					f.SetLocal(0, o)
					prev = o
				}
			})
		},
	})
}

// TestTapeCacheSharesAcrossRepeats pins the Repeats contract: one job
// with N repeats drives the workload once (recording) and replays the
// other N-1 from the shared tape; with the cache off every repeat
// drives.
func TestTapeCacheSharesAcrossRepeats(t *testing.T) {
	job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21, Repeats: 5}

	tapeDriveCount.Store(0)
	if err := execErr(New(1), job); err != nil {
		t.Fatal(err)
	}
	if got := tapeDriveCount.Load(); got != 1 {
		t.Errorf("tape cache on: driver ran %d times across 5 repeats, want 1", got)
	}

	tapeDriveCount.Store(0)
	if err := execErr(New(1).SetTapeCache(false), job); err != nil {
		t.Fatal(err)
	}
	if got := tapeDriveCount.Load(); got != 5 {
		t.Errorf("tape cache off: driver ran %d times across 5 repeats, want 5", got)
	}
}

// TestTapeCacheBitIdentical pins the substitution property at the
// engine surface: the same matrix row computed through the cache
// (first cell drives, second records, third replays) and with the cache
// disabled produces identical collector statistics and heap state.
func TestTapeCacheBitIdentical(t *testing.T) {
	jobs := []Job{
		{Workload: "jess", Size: 1, Collector: "cg", HeapBytes: 1 << 24},
		{Workload: "jess", Size: 1, Collector: "cg+recycle", HeapBytes: 1 << 24},
		{Workload: "jess", Size: 1, Collector: "cg", HeapBytes: 1 << 24, GCEvery: 900},
	}
	type snap struct {
		stats core.Stats
		hs    heap.Stats
		instr uint64
	}
	collect := func(eng *Engine) []snap {
		out := make([]snap, len(jobs))
		for i, job := range jobs {
			eng.ExecRelease(job, func(r Result) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				out[i] = snap{r.Col.(*core.CG).Stats(), r.RT.Heap.Stats(), r.RT.Instr()}
			})
		}
		return out
	}
	cached := collect(New(1))
	driven := collect(New(1).SetTapeCache(false))
	for i := range jobs {
		if cached[i] != driven[i] {
			t.Errorf("job %d: tape-backed cell differs from driven cell\ncached: %+v\ndriven: %+v",
				i, cached[i], driven[i])
		}
	}
}

// TestTapeCacheProgressCounters checks the second-run policy through
// the /progress accounting: the row's first cell drives with no
// recorder, the second records, and the third replays.
func TestTapeCacheProgressCounters(t *testing.T) {
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	want := [][2]int64{{0, 0}, {1, 0}, {1, 1}} // recorded, replays after each cell
	for i, col := range []string{"cg", "msa", "gen"} {
		if err := execErr(eng, Job{Workload: "compress", Size: 1, Collector: col, HeapBytes: 1 << 24}); err != nil {
			t.Fatal(err)
		}
		s := p.Snapshot()
		if got := [2]int64{s.TapesRecorded, s.TapeReplays}; got != want[i] {
			t.Errorf("after cell %d: recorded %d / replays %d, want %d / %d", i+1, got[0], got[1], want[i][0], want[i][1])
		}
	}
	if eng.Tapes() != 1 {
		t.Errorf("engine caches %d tapes, want 1", eng.Tapes())
	}
}

// TestOneCellRowRecordsNothing: a row that runs once — most rows of a
// deduplicated sweep — drives once and leaves no tape behind; the
// recording waits for the row's second run.
func TestOneCellRowRecordsNothing(t *testing.T) {
	p := &obs.Progress{}
	eng := New(1).SetProgress(p)
	job := Job{Workload: "tape-count", Size: 1, Collector: "cg", HeapBytes: 1 << 21}
	tapeDriveCount.Store(0)
	if err := execErr(eng, job); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if eng.Tapes() != 0 || s.TapesRecorded != 0 || s.TapeReplays != 0 || tapeDriveCount.Load() != 1 {
		t.Fatalf("one-cell row: %d tapes, %d recorded, %d replays, %d drives; want 0, 0, 0, 1",
			eng.Tapes(), s.TapesRecorded, s.TapeReplays, tapeDriveCount.Load())
	}
	if err := execErr(eng, job); err != nil {
		t.Fatal(err)
	}
	s = p.Snapshot()
	if eng.Tapes() != 1 || s.TapesRecorded != 1 || tapeDriveCount.Load() != 2 {
		t.Fatalf("second run: %d tapes, %d recorded, %d drives; want 1, 1, 2",
			eng.Tapes(), s.TapesRecorded, tapeDriveCount.Load())
	}
}

// TestTapeCacheClears pins cache invalidation: a cap change drops the
// cached tapes along with the pool (their charges belonged to the old
// regime) but remembers which rows have run, and disabling the cache
// drops the tapes, their charges and that memory but keeps the pooled
// shard.
func TestTapeCacheClears(t *testing.T) {
	eng := New(1).SetMaxHeapBytes(1 << 26)
	job := Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 1 << 22}
	// The row's second run records its tape.
	for range 2 {
		if err := execErr(eng, job); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := eng.ReservedBytes(), 1<<22+cachedTapeBytes(eng); eng.Tapes() != 1 || got != want {
		t.Fatalf("expected 1 cached tape and %d reserved bytes, have %d tapes, %d bytes", want, eng.Tapes(), got)
	}
	eng.SetMaxHeapBytes(1 << 27)
	if eng.Tapes() != 0 {
		t.Errorf("cap change left %d cached tapes", eng.Tapes())
	}
	if got := eng.ReservedBytes(); got != 0 {
		t.Errorf("cap change left %d reserved bytes", got)
	}

	// The row has run before, so one run re-records it.
	if err := execErr(eng, job); err != nil {
		t.Fatal(err)
	}
	tb := cachedTapeBytes(eng)
	if got, want := eng.ReservedBytes(), 1<<22+tb; eng.Tapes() != 1 || tb == 0 || got != want {
		t.Fatalf("expected 1 cached tape holding reserve: have %d tapes, %d bytes, want %d", eng.Tapes(), got, want)
	}
	eng.SetTapeCache(false)
	if eng.Tapes() != 0 || eng.TapeCache() {
		t.Error("SetTapeCache(false) left the cache populated")
	}
	if got := eng.ReservedBytes(); got != 1<<22 {
		t.Errorf("disabling the cache left %d reserved bytes, want the pooled shard's %d", got, 1<<22)
	}
	// Re-enabled, the row starts over: its next run drives.
	eng.SetTapeCache(true)
	if err := execErr(eng, job); err != nil {
		t.Fatal(err)
	}
	if eng.Tapes() != 0 {
		t.Errorf("first run after re-enabling the cache recorded %d tapes, want 0", eng.Tapes())
	}
}
