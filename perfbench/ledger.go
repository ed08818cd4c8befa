package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/collectors"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The layer ledger splits a cell's cost by tape subtraction, with no
// timer inside the program. Per (workload, size) row a tape is recorded
// once under "none" on the demographics arena; then, per cell,
//
//	driver    = drive(col) - replay(col)
//	collector = replay(col) - replay(none)
//	events    = collector - cycle time (from the runtime's Timeline)
//
// where drive runs the workload analog and replay feeds the tape
// through the same runtime entry points. Each run starts from a fresh
// runtime; only Run (or Replayer.Run) and Quiesce are timed.

// ledgerReps is how many times a run of a given size is repeated; the
// ledger uses the median.
func ledgerReps(size int) int {
	switch {
	case size <= 1:
		return 5
	case size <= 10:
		return 3
	}
	return 1
}

// split is one cell's subtraction.
type split struct {
	drive, replay, replayNone float64 // ns
	cycle                     float64 // ns of collection cycles in the replay
}

func (s split) driver() float64    { return s.drive - s.replay }
func (s split) collector() float64 { return s.replay - s.replayNone }
func (s split) events() float64    { return s.collector() - s.cycle }

// family is a collector spec's base ("cg", "msa", "gen"). The cycles of
// cg and msa cells are reported as msa's (CG's fallback collector is the
// mark-sweep engine), those of gen cells as gengc's.
func family(spec string) string {
	base, _, _ := strings.Cut(spec, "+")
	return base
}

// ledgerSums accumulates the ledger over the distinct cells of a
// workload.
type ledgerSums struct {
	driverNS, opsAll             float64
	noneNS, noneOps, tapeOps     float64
	cgEventsNS, cgOps            float64
	unions, popped, created      uint64
	msa, gen                     obs.CycleStats
	msaPause, genPause           float64
	recordNS, encodeNS, decodeNS float64
	tapeBytes                    float64
	overhead, heapBytes          float64
	sizes                        []int
	cells, failed                int
}

// runLedger measures the ledger over the distinct cells of jobs and
// sets the per-layer metrics of the workload, vm, core, msa, gengc and
// heap layers on o, and of the tape layer when the workload uses tapes.
func runLedger(e *env, o *outcome, jobs []engine.Job, tapes bool) error {
	type row struct {
		wl    string
		size  int
		cells []engine.Job
	}
	var rows []*row
	byRow := map[string]*row{}
	seen := map[string]bool{}
	for _, j := range jobs {
		key, err := results.Key(j)
		if err != nil {
			return err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rk := fmt.Sprintf("%s/%d", j.Workload, j.Size)
		r := byRow[rk]
		if r == nil {
			r = &row{wl: j.Workload, size: j.Size}
			byRow[rk] = r
			rows = append(rows, r)
		}
		r.cells = append(r.cells, j)
	}

	ref, err := timingRef()
	if err != nil {
		return err
	}
	var s ledgerSums
	none, err := collectors.Parse("none")
	if err != nil {
		return err
	}
	for _, r := range rows {
		spec, err := workload.ByName(r.wl)
		if err != nil {
			return err
		}
		reps := ledgerReps(r.size)
		rid := e.tr.begin("ledger.row", 0)
		fresh := func() *vm.Runtime { return vm.New(heap.New(engine.DemographicsArena), none()) }

		// Drive under none, plain and recording: the recording's extra
		// time is what a tape-cache miss costs.
		var driveNone, record []float64
		var t *tape.Tape
		for i := 0; i < reps; i++ {
			rt := fresh()
			driveNone = append(driveNone, float64(e.tr.do("workload.Run", rid, func(int) {
				spec.Run(rt, r.size)
				rt.Quiesce()
			})))
			rt = fresh()
			rec := tape.NewRecorder(rt, tape.Meta{Workload: r.wl, Size: r.size,
				Threads: spec.Threads(r.size), HeapBytes: spec.HeapBytes(r.size)})
			record = append(record, float64(e.tr.do("tape.Record", rid, func(int) {
				spec.Run(rt, r.size)
				rt.Quiesce()
				t = rec.Finish()
			})))
		}
		s.recordNS += median(record) - median(driveNone)
		var enc []byte
		s.encodeNS += float64(e.tr.do("tape.Encode", rid, func(int) { enc = tape.Encode(t) }))
		var derr error
		s.decodeNS += float64(e.tr.do("tape.Decode", rid, func(int) { _, derr = tape.Decode(enc) }))
		if derr != nil {
			return fmt.Errorf("ledger %s/%d: %w", r.wl, r.size, derr)
		}
		s.tapeBytes += float64(t.MemBytes())
		rp := tape.NewReplayer(t)

		// Replay under none: runtime dispatch and tape decoding only.
		var replayNone []float64
		var last *vm.Runtime
		for i := 0; i < reps; i++ {
			rt := fresh()
			var rerr error
			replayNone = append(replayNone, float64(e.tr.do("tape.Replay", rid, func(int) {
				rerr = rp.Run(rt)
				rt.Quiesce()
			})))
			if rerr != nil {
				return fmt.Errorf("ledger %s/%d: replay under none: %w", r.wl, r.size, rerr)
			}
			last = rt
		}
		rn := median(replayNone)
		s.noneNS += rn
		s.noneOps += float64(last.Instr())
		s.tapeOps += float64(t.Ops())
		// Nothing is freed under none, so the live objects are every
		// allocation of the row: the size mix the arena serves.
		last.Heap.ForEachLive(func(id heap.HandleID) { s.sizes = append(s.sizes, last.Heap.SizeOf(id)) })

		for _, job := range r.cells {
			sp, obsDrive, info, err := driveCell(e, rid, spec, job, reps)
			s.cells++
			if err != nil && !knownFailure(ref, job) {
				return fmt.Errorf("ledger %s/%d/%s: %w", job.Workload, job.Size, job.Collector, err)
			}
			if err != nil {
				s.failed++
				o.notes = append(o.notes, fmt.Sprintf("ledger: %s/%d/%s: %v", job.Workload, job.Size, job.Collector, err))
				continue
			}
			cyc, obsReplay, err := replayCell(e, rid, rp, job, reps, &sp)
			if err != nil {
				return err
			}
			if obsReplay.key() != obsDrive.key() {
				return fmt.Errorf("ledger %s/%d/%s: replay does not reproduce the driven observables:\n replay %s\n drive  %s",
					job.Workload, job.Size, job.Collector, obsReplay.key(), obsDrive.key())
			}
			sp.replayNone = rn
			s.driverNS += sp.driver()
			s.opsAll += float64(obsDrive.Instr)
			s.overhead += float64(info.Overhead)
			s.heapBytes += float64(info.HeapBytes)
			switch family(job.Collector) {
			case "cg":
				s.cgEventsNS += sp.events()
				s.cgOps += float64(obsDrive.Instr)
				st := obsDrive.Payload.CG
				s.unions += st.Stats.Unions
				s.popped += st.Breakdown.Popped
				s.created += st.Breakdown.Created
				s.msa.Merge(&cyc)
				s.msaPause += sp.cycle
			case "msa":
				s.msa.Merge(&cyc)
				s.msaPause += sp.cycle
			case "gen":
				s.gen.Merge(&cyc)
				s.genPause += sp.cycle
			}
		}
		e.tr.end(rid)
	}
	if s.cells == s.failed {
		return fmt.Errorf("ledger: every cell failed")
	}
	return s.setMetrics(e, o, tapes)
}

// driveCell runs the cell's workload analog under its collector on its
// own arena and returns the drive time, the observables, and the
// arena occupancy at the end. A panic (heap exhaustion) is an error.
func driveCell(e *env, parent int, spec workload.Spec, job engine.Job, reps int) (sp split, ob observables, info heap.Info, err error) {
	mk, err := collectors.Parse(job.Collector)
	if err != nil {
		return sp, ob, info, err
	}
	bytes, err := engine.ArenaBytes(job)
	if err != nil {
		return sp, ob, info, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	var times []float64
	for i := 0; i < reps; i++ {
		ev := mk()
		ev.GCEvery = job.GCEvery
		rt := vm.New(heap.New(bytes), ev)
		times = append(times, float64(e.tr.do("workload.Run", parent, func(int) {
			spec.Run(rt, job.Size)
			rt.Quiesce()
		})))
		ob = observe(results.Extract(engine.Result{Job: job, RT: rt, Col: ev.Collector}))
		info = rt.Heap.Arena().Info()
	}
	sp.drive = median(times)
	return sp, ob, info, nil
}

// replayCell replays the row's tape under the cell's collector and
// returns the cycle statistics of the last replay and its observables.
func replayCell(e *env, parent int, rp *tape.Replayer, job engine.Job, reps int, sp *split) (obs.CycleStats, observables, error) {
	mk, err := collectors.Parse(job.Collector)
	if err != nil {
		return obs.CycleStats{}, observables{}, err
	}
	bytes, err := engine.ArenaBytes(job)
	if err != nil {
		return obs.CycleStats{}, observables{}, err
	}
	var times, pauses []float64
	var cyc obs.CycleStats
	var ob observables
	for i := 0; i < reps; i++ {
		ev := mk()
		ev.GCEvery = job.GCEvery
		rt := vm.New(heap.New(bytes), ev)
		var rerr error
		times = append(times, float64(e.tr.do("tape.Replay", parent, func(int) {
			rerr = rp.Run(rt)
			rt.Quiesce()
		})))
		if rerr != nil {
			return cyc, ob, fmt.Errorf("ledger %s/%d/%s: replay: %w", job.Workload, job.Size, job.Collector, rerr)
		}
		cyc = rt.Timeline().Stats()
		pauses = append(pauses, float64(cyc.PauseNS))
		ob = observe(results.Extract(engine.Result{Job: job, RT: rt, Col: ev.Collector}))
	}
	sp.replay = median(times)
	sp.cycle = median(pauses)
	return cyc, ob, nil
}

func (s *ledgerSums) setMetrics(e *env, o *outcome, tapes bool) error {
	note := fmt.Sprintf("summed over %d distinct cells", s.cells-s.failed)
	if s.failed > 0 {
		note += fmt.Sprintf(" (%d cells failed and are left out)", s.failed)
	}
	o.m.set("workload.driver_ms", "ms", s.driverNS/1e6, nil, "drive - replay, "+note)
	o.m.set("vm.ops", "count", s.opsAll, nil, "runtime operations, "+note)
	o.m.set("vm.dispatch_ns_per_op", "ns", s.noneNS/s.noneOps, nil, "replay under none / its operations, per row")
	o.m.set("core.events_ns_per_op", "ns", s.cgEventsNS/s.cgOps, nil, "(replay(cg) - replay(none) - cycle time) / operations, cg cells")
	o.m.set("core.unions", "count", float64(s.unions), nil, "contamination unions, cg cells")
	o.m.set("core.popped_frac", "fraction", float64(s.popped)/float64(s.created), nil, "objects collected at frame pops / created, cg cells")
	o.m.set("msa.cycles", "count", float64(s.msa.Cycles), nil, "traditional collection cycles in replays of cg and msa cells")
	o.m.set("msa.pause_ms", "ms", s.msaPause/1e6, nil, "their summed pause time")
	o.m.set("msa.pause_p95_us", "us", float64(s.msa.Pause.Quantile(0.95))/1e3, nil, "95th-percentile pause (histogram bucket bound)")
	o.m.set("msa.mark_ms", "ms", float64(s.msa.MarkNS)/1e6, nil, "summed mark time")
	o.m.set("msa.sweep_ms", "ms", float64(s.msa.SweepNS)/1e6, nil, "summed sweep time")
	o.m.set("msa.marked", "count", float64(s.msa.Marked), nil, "objects marked")
	if s.gen.Cycles > 0 {
		o.m.set("gengc.cycles", "count", float64(s.gen.Cycles), nil, "generational cycles in replays of gen cells")
		o.m.set("gengc.pause_ms", "ms", s.genPause/1e6, nil, "their summed pause time")
	}
	o.m.set("heap.overhead_frac", "fraction", s.overhead/s.heapBytes, nil, "arena Info Overhead / HeapBytes at the end of each drive")
	alloc, free, err := arenaChurn(e, s.sizes)
	if err != nil {
		return err
	}
	o.m.set("heap.alloc_ns", "ns", alloc, nil, fmt.Sprintf("Arena.Alloc over the rows' size mix (%d sizes)", min(len(s.sizes), maxChurn)))
	o.m.set("heap.free_ns", "ns", free, nil, "Arena.Free of the same extents")
	if !tapes {
		return nil
	}
	o.m.set("tape.record_overhead_ms", "ms", s.recordNS/1e6, nil, "record - drive under none, per row")
	o.m.set("tape.replay_ns_per_op", "ns", s.noneNS/s.tapeOps, nil, "replay under none / tape operations")
	o.m.set("tape.encode_ms", "ms", s.encodeNS/1e6, nil, "tape.Encode of every row's tape")
	o.m.set("tape.decode_ms", "ms", s.decodeNS/1e6, nil, "tape.Decode of the same")
	o.m.set("tape.mem_mb", "MiB", s.tapeBytes/(1<<20), nil, "Tape.MemBytes of every row's tape")
	return nil
}

// maxChurn caps the allocations one churn pass makes.
const maxChurn = 200000

// arenaChurn times Arena.Alloc over the size mix on a fresh arena, then
// Arena.Free of every extent in allocation order; per-operation medians
// over five passes.
func arenaChurn(e *env, sizes []int) (allocNS, freeNS float64, err error) {
	if len(sizes) > maxChurn {
		// A deterministic sample keeps the mix and bounds the time.
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		sizes = sizes[:maxChurn]
	}
	total := 1 << 20
	for _, sz := range sizes {
		total += 2*sz + 16
	}
	addrs := make([]int, len(sizes))
	var allocs, frees []float64
	for pass := 0; pass < 5; pass++ {
		a := heap.NewArena(total)
		var aerr error
		d := e.tr.do("heap.Arena.Alloc", 0, func(int) {
			for i, sz := range sizes {
				if addrs[i], aerr = a.Alloc(sz); aerr != nil {
					return
				}
			}
		})
		if aerr != nil {
			return 0, 0, fmt.Errorf("arena churn: %w", aerr)
		}
		allocs = append(allocs, float64(d)/float64(len(sizes)))
		d = e.tr.do("heap.Arena.Free", 0, func(int) {
			for i, sz := range sizes {
				a.Free(addrs[i], sz)
			}
		})
		frees = append(frees, float64(d)/float64(len(sizes)))
	}
	return median(allocs), median(frees), nil
}
