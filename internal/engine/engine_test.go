package engine

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// panicWorkload is registered once for the whole test process: a
// workload that allocates a few objects and then panics mid-stream,
// exercising the engine's failure path. Keyed off size: size 1 panics,
// size 2 completes.
const panicWorkload = "panicky"

func init() {
	workload.Register(workload.Spec{
		Name:      panicWorkload,
		Desc:      "panics mid-stream (test fixture)",
		Threads:   func(int) int { return 1 },
		HeapBytes: func(int) int { return 1 << 20 },
		Run: func(rt *vm.Runtime, size int) {
			cls := rt.Heap.DefineClass(heap.Class{Name: "panicky.Obj", Data: 8})
			th := rt.NewThread(1)
			th.CallVoid(1, func(f *vm.Frame) {
				f.MustNew(cls)
				if size == 1 {
					panic("synthetic mid-stream failure")
				}
			})
		},
	})
}

// execErr runs one job through ExecRelease and returns its error.
func execErr(eng *Engine, job Job) (err error) {
	eng.ExecRelease(job, func(r Result) { err = r.Err })
	return err
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	const n = 100
	var hits [n]int32
	New(8).Do(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestRunResultsInSubmissionOrder(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg"},
		{Workload: "jess", Size: 1, Collector: "msa"},
	}
	got := make([]Job, len(jobs))
	New(3).RunEach(jobs, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
		if r.RT == nil || r.Col == nil {
			t.Errorf("result %d missing shard state", i)
		}
		got[i] = r.Job
	})
	for i := range jobs {
		if got[i] != jobs[i] {
			t.Fatalf("slot %d holds %s/%s, want %s/%s",
				i, got[i].Workload, got[i].Collector, jobs[i].Workload, jobs[i].Collector)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "jess", Size: 1, Collector: "cg"},
		{Workload: "raytrace", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg+noopt"},
	}
	type snap struct {
		stats core.Stats
		instr uint64
	}
	run := func(eng *Engine) []snap {
		out := make([]snap, len(jobs))
		eng.RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				t.Errorf("job %d: %v", i, r.Err)
				return
			}
			out[i] = snap{r.Col.(*core.CG).Stats(), r.RT.Instr()}
		})
		return out
	}
	seq, par := run(New(1)), run(New(4))
	for i := range jobs {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("job %d diverges between 1 and 4 workers:\n%+v\n%+v", i, seq[i], par[i])
		}
	}
}

func TestExecErrors(t *testing.T) {
	eng := New(1)
	if execErr(eng, Job{Workload: "nosuch", Size: 1, Collector: "cg"}) == nil {
		t.Fatal("unknown workload must error")
	}
	if execErr(eng, Job{Workload: "compress", Size: 1, Collector: "nosuch"}) == nil {
		t.Fatal("unknown collector must error")
	}
	if execErr(eng, Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: -7}) == nil {
		t.Fatal("negative heap budget must error")
	}
	// Failed cells leave nothing behind: no pooled shard, no busy bytes,
	// no stranded recording claim.
	if eng.ledger.busy != 0 || eng.ledger.idleCount != 0 || len(eng.ledger.recording) != 0 {
		t.Fatalf("failed cells left busy %d, pooled %d, claims %d",
			eng.ledger.busy, eng.ledger.idleCount, len(eng.ledger.recording))
	}
}

func TestExecRecoversShardPanic(t *testing.T) {
	// A 1 KiB arena cannot hold any analog's live set: the shard hits a
	// hard OOM panic, which must surface as Result.Err, not crash the
	// matrix — and the panicked shard must never be recycled.
	// Two repeats make the first one claim the row's recording, so the
	// panic must also release that claim.
	eng := New(1).SetMaxHeapBytes(1 << 20)
	err := execErr(eng, Job{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: 1 << 10, Repeats: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("OOM shard reported %v, want a panic error", err)
	}
	if eng.ledger.idleCount != 0 || eng.ReservedBytes() != 0 {
		t.Fatalf("panicked shard left %d pooled, %d reserved bytes", eng.ledger.idleCount, eng.ReservedBytes())
	}
	if len(eng.ledger.recording) != 0 || eng.Tapes() != 0 {
		t.Fatalf("panicked recording left %d claims, %d tapes", len(eng.ledger.recording), eng.Tapes())
	}
}

// TestRunEachSurvivesPanickingWorkload: a job whose workload panics
// mid-stream must yield its slot as an error, and every other slot
// must still arrive, in its own index.
func TestRunEachSurvivesPanickingWorkload(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: panicWorkload, Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "cg"},
		{Workload: panicWorkload, Size: 2, Collector: "cg"},
	}
	got := make([]Result, len(jobs))
	seen := make([]bool, len(jobs))
	New(4).RunEach(jobs, func(i int, r Result) { got[i], seen[i] = r, true })
	for i := range jobs {
		if !seen[i] || got[i].Job != jobs[i] {
			t.Fatalf("slot %d: seen %v, job %+v", i, seen[i], got[i].Job)
		}
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "panicked") {
		t.Fatalf("panicking cell yielded %v, want a panic error", got[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if got[i].Err != nil {
			t.Fatalf("healthy cell %d errored: %v", i, got[i].Err)
		}
	}
}

func TestRepeatsUseFreshShards(t *testing.T) {
	created := func(job Job) uint64 {
		var n uint64
		New(1).ExecRelease(job, func(r Result) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			n = r.Col.(*core.CG).Stats().Created
		})
		return n
	}
	// The last repeat's collector saw exactly one run's worth of
	// allocations: repeats do not accumulate state.
	a := created(Job{Workload: "db", Size: 1, Collector: "cg"})
	b := created(Job{Workload: "db", Size: 1, Collector: "cg", Repeats: 5})
	if a != b {
		t.Fatalf("repeat shard created %d objects, single run %d", b, a)
	}
}

func TestTightHeapBudget(t *testing.T) {
	arena := func(job Job) int {
		var n int
		New(1).ExecRelease(job, func(r Result) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			n = r.RT.Heap.Arena().Size()
		})
		return n
	}
	spec, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := arena(Job{Workload: "compress", Size: 1, Collector: "msa", HeapBytes: TightHeap}), spec.HeapBytes(1); got != want {
		t.Fatalf("tight shard arena = %d bytes, want the workload budget %d", got, want)
	}
	if got := arena(Job{Workload: "compress", Size: 1, Collector: "msa"}); got != DemographicsArena {
		t.Fatalf("default shard arena = %d bytes, want %d", got, DemographicsArena)
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("workers must default to at least 1")
	}
	if New(7).Workers() != 7 {
		t.Fatal("explicit worker count must stick")
	}
}

func TestRunEachConsumesEveryCellInIndexSlot(t *testing.T) {
	jobs := []Job{
		{Workload: "compress", Size: 1, Collector: "cg"},
		{Workload: "db", Size: 1, Collector: "msa"},
		{Workload: "nosuch", Size: 1, Collector: "cg"},
	}
	got := make([]Result, len(jobs))
	New(3).RunEach(jobs, func(i int, r Result) { got[i] = r })
	if got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("good cells errored: %v, %v", got[0].Err, got[1].Err)
	}
	if got[0].Job.Workload != "compress" || got[1].Job.Workload != "db" {
		t.Fatal("results landed in the wrong slots")
	}
	if got[2].Err == nil {
		t.Fatal("bad cell must carry its error")
	}
}

func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"0":      0,
		"1024":   1024,
		"512KiB": 512 << 10,
		"512K":   512 << 10,
		"3MiB":   3 << 20,
		"2GiB":   2 << 30,
		" 2G ":   2 << 30,
	}
	for in, want := range good {
		got, err := ParseByteSize(in)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseByteSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "-1", "1.5GiB", "10TiB", "9999999999G"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Fatalf("ParseByteSize(%q) must error", bad)
		}
	}
}
