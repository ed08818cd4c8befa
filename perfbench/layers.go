package main

import "strings"

// allLayerMetrics is every per-layer metric the traced run can report,
// in layer order. A workload that does not exercise a layer reports the
// layer's metrics as absent, with the reason, instead of a zero.
var allLayerMetrics = []string{
	"workload.driver_ms",
	"vm.ops", "vm.dispatch_ns_per_op",
	"core.events_ns_per_op", "core.unions", "core.popped_frac",
	"msa.cycles", "msa.pause_ms", "msa.pause_p95_us", "msa.mark_ms", "msa.sweep_ms", "msa.marked",
	"gengc.cycles", "gengc.pause_ms",
	"heap.alloc_ns", "heap.free_ns", "heap.overhead_frac",
	"tape.record_overhead_ms", "tape.replay_ns_per_op", "tape.encode_ms", "tape.decode_ms", "tape.mem_mb", "tape.hit_ratio",
	"engine.exec_ms", "engine.busy_frac", "engine.wait_ms",
	"results.encode_us", "results.decode_us", "results.put_ms", "results.get_ms", "results.hit_ratio", "results.dedup_ratio",
	"serve.ttfb_ms", "serve.stream_overhead_ms", "serve.get_304_ms",
	"experiments.render_ms", "experiments.first_row_ms",
	"bench.trace_overhead_frac",
}

// e2eOnly are the end-to-end metrics; a traced run measures them too
// (for bench.trace_overhead_frac) but does not report them, since
// end-to-end numbers come from the untraced run.
var e2eOnly = []string{"setup_s", "cells_per_s", "peak_rss_mb", "cpu_ms_per_cell",
	"cell_geomean_ms", "sweep_p50_ms", "sweep_p90_ms", "get_p50_ms", "error_rate"}

// absentWhy says, per workload, why a metric (by full name or layer
// prefix) is not measured there.
var absentWhy = map[string]map[string]string{
	"grid": {
		"gengc":          "the grid has no gen cells",
		"engine.wait_ms": "cgsweep is one closed-loop client with no request queue",
		"results":        "the grid runs without a store",
		"serve":          "the grid makes no HTTP requests",
	},
	"timing": {
		"tape":        "timing runs the cold path, which bypasses tapes",
		"engine":      "timing runs the cold path, which bypasses the engine",
		"results":     "timing has no store",
		"serve":       "timing makes no HTTP requests",
		"experiments": "timing renders no figures",
	},
	"serve": {
		"engine.exec_ms":   "cell execution inside cgserve is not visible from outside without timers in the program",
		"engine.busy_frac": "cell execution inside cgserve is not visible from outside without timers in the program",
		"experiments":      "figures are rendered inside cgserve; their cost is part of the sweep latency",
	},
}

// markAbsent records, for every per-layer metric the run did not set,
// why the workload does not measure it.
func markAbsent(o *outcome, workload string) {
	for _, name := range allLayerMetrics {
		if _, ok := o.m.get(name); ok {
			continue
		}
		why := absentWhy[workload][name]
		if why == "" {
			layer, _, _ := strings.Cut(name, ".")
			why = absentWhy[workload][layer]
		}
		if why == "" {
			why = "not measured on this workload"
		}
		o.absent[name] = why
	}
}

// dropE2E removes the end-to-end metrics from a traced run's outcome.
func dropE2E(o *outcome) {
	for _, name := range e2eOnly {
		delete(o.m.m, name)
		delete(o.absent, name)
	}
	kept := o.m.names[:0]
	for _, name := range o.m.names {
		if _, ok := o.m.m[name]; ok {
			kept = append(kept, name)
		}
	}
	o.m.names = kept
}
