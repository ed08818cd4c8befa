package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/results"
	"repro/internal/vm"
	"repro/internal/workload"
)

// cell is one timing cell: a workload analog at a size under a
// collector spec on the workload's tight heap, optionally with a full
// collection forced every GCEvery operations.
type cell struct {
	Workload  string `json:"workload"`
	Size      int    `json:"size"`
	Collector string `json:"collector"`
	GCEvery   uint64 `json:"gc_every,omitempty"`
}

func (c cell) name() string {
	n := fmt.Sprintf("%s/%d/%s", c.Workload, c.Size, c.Collector)
	if c.GCEvery != 0 {
		n += fmt.Sprintf("/gc%d", c.GCEvery)
	}
	return n
}

func (c cell) job() engine.Job {
	return engine.Job{Workload: c.Workload, Size: c.Size, Collector: c.Collector,
		HeapBytes: engine.TightHeap, GCEvery: c.GCEvery}
}

// gcEvery is the §4.7 forced-collection interval of the timing matrix.
const gcEvery = 2000

// timingCells is the paper's timing matrix on tight heaps: every
// workload at sizes 1, 10 and 100 under cg and msa (Figs 4.7, 4.8,
// 4.10, A.5-A.7), size 1 under cg+recycle (Fig 4.12), and size 10 under
// cg, msa and gen with a collection forced every gcEvery operations.
func timingCells() []cell {
	var cs []cell
	for _, size := range []int{1, 10, 100} {
		for _, w := range workload.Names() {
			cs = append(cs, cell{w, size, "cg", 0}, cell{w, size, "msa", 0})
			if size == 1 {
				cs = append(cs, cell{w, size, "cg+recycle", 0})
			}
			if size == 10 {
				for _, col := range []string{"cg", "msa", "gen"} {
					cs = append(cs, cell{w, size, col, gcEvery})
				}
			}
		}
	}
	return cs
}

// observables is the deterministic part of a cell's outcome: operation
// count, collection cycles and the collector's own statistics. Wall
// time, provenance and arena layout are left out.
type observables struct {
	Instr    uint64          `json:"instr"`
	GCCycles int             `json:"gc_cycles"`
	Payload  results.Payload `json:"payload"`
	Err      string          `json:"err,omitempty"`
}

func observe(o results.Outcome) observables {
	if o.Err != "" {
		return observables{Err: o.Err}
	}
	return observables{Instr: o.Instr, GCCycles: o.GCCycles, Payload: o.Payload}
}

func (o observables) key() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	return string(b)
}

//go:embed ref/timing.json
var timingRefJSON []byte

// timingRef maps a cell name to the observables recorded at the seed
// commit (an Err for the cells that fail there).
func timingRef() (map[string]observables, error) {
	ref := map[string]observables{}
	if err := json.Unmarshal(timingRefJSON, &ref); err != nil {
		return nil, fmt.Errorf("perfbench: ref/timing.json: %w", err)
	}
	return ref, nil
}

// checkCell compares got with the reference. A cell the reference
// records as failing may fail again (a known failure, counted as a
// failed operation) or succeed (a later fix has nothing to be compared
// with). Any other cell must succeed with exactly the reference's
// observables: a new failure is a correctness failure, not a cheaper cell.
func checkCell(ref map[string]observables, name string, got observables) error {
	want, ok := ref[name]
	if !ok {
		return fmt.Errorf("%s: no reference", name)
	}
	if want.Err != "" {
		return nil
	}
	if got.Err != "" {
		return fmt.Errorf("%s: failed (%s) where the reference succeeded", name, got.Err)
	}
	if got.key() != want.key() {
		return fmt.Errorf("%s: observables differ from the reference:\n got  %s\n want %s", name, got.key(), want.key())
	}
	return nil
}

// knownFailure reports whether job is a timing cell that the reference
// records as failing.
func knownFailure(ref map[string]observables, job engine.Job) bool {
	c := cell{job.Workload, job.Size, job.Collector, job.GCEvery}
	return job.HeapBytes == engine.TightHeap && ref[c.name()].Err != ""
}

// runCold runs one cell through the facade's cold path — collector,
// heap, runtime, driver, quiesce — with a span around each call, and
// returns the extracted outcome, the program's set-up time (the
// collectors.New, heap.New and vm.New calls) and the wall time of the
// whole path. A panic (the workloads panic on heap exhaustion) becomes
// the outcome's error.
func runCold(c cell, tr *tracer, parent int) (results.Outcome, time.Duration, time.Duration) {
	spec, err := workload.ByName(c.Workload)
	if err != nil {
		return results.Outcome{Job: c.job(), Err: err.Error()}, 0, 0
	}
	res := engine.Result{Job: c.job()}
	var setup time.Duration
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Errorf("%v", r)
			}
		}()
		var ev vm.Events
		setup += tr.do("collectors.New", parent, func(int) { ev, err = collectors.New(c.Collector) })
		if err != nil {
			res.Err = err
			return
		}
		ev.GCEvery = c.GCEvery
		var h *heap.Heap
		setup += tr.do("heap.New", parent, func(int) { h = heap.New(spec.HeapBytes(c.Size)) })
		var rt *vm.Runtime
		setup += tr.do("vm.New", parent, func(int) { rt = vm.New(h, ev) })
		tr.do("workload.Run", parent, func(int) { spec.Run(rt, c.Size) })
		tr.do("vm.Quiesce", parent, func(int) { rt.Quiesce() })
		res.RT, res.Col = rt, ev.Collector
	}()
	d := time.Since(start)
	res.Elapsed = d
	return results.Extract(res), setup, d
}
