// Command perfbench is the repository's benchmark: three workloads that
// exercise different layers (grid, timing, serve), end-to-end metrics
// measured untraced, and a traced run that splits the cost into layers
// by tape subtraction. It is started by run.sh, which builds the
// program's binaries and this one from source; see README.md.
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// prints no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// named is a metric name with its unit.
type named struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports in the
// untraced run's result line; BENCHMARK.json lists the same names and
// units. Wall-clock throughput (cells_per_s) and latencies are measured
// and printed but not in this line: on a host whose hypervisor steals
// CPU time for minutes at a time they move by more than any usable
// bound between runs of the same code, while CPU time per cell, peak
// RSS and set-up time stay put (README.md has the figures).
var e2eMetrics = []named{
	{"setup_s", "s"}, {"cpu_ms_per_cell", "ms"}, {"peak_rss_mb", "MiB"},
}

// layerMetrics are the per-layer metrics every workload reports in the
// traced run's result line; BENCHMARK.json lists the same names and
// units. Layers a workload does not exercise (tape, engine, results,
// serve, experiments, gengc) appear only in the full report, with the
// reason they are absent.
var layerMetrics = []named{
	{"workload.driver_ms", "ms"}, {"vm.ops", "count"}, {"vm.dispatch_ns_per_op", "ns"},
	{"core.events_ns_per_op", "ns"}, {"core.unions", "count"}, {"core.popped_frac", "fraction"},
	{"msa.cycles", "count"}, {"msa.pause_ms", "ms"}, {"msa.pause_p95_us", "us"},
	{"msa.mark_ms", "ms"}, {"msa.sweep_ms", "ms"}, {"msa.marked", "count"},
	{"heap.alloc_ns", "ns"}, {"heap.free_ns", "ns"}, {"heap.overhead_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
}

// env is what a workload run needs from the command line and the
// checkout.
type env struct {
	root    string // checkout root (holds go.mod and internal/)
	bin     string // directory holding cgsweep, cgserve and perfbench
	work    string // private scratch directory of this run
	seed    int64
	seconds time.Duration
	nproc   int
	tr      *tracer
}

// outcome is what one untraced or traced workload run measured.
type outcome struct {
	attempted, failed int64
	m                 *metrics
	absent            map[string]string // metric name -> why not measured here
	notes             []string
	lines             [][]byte // serve: outcome events received, for the codec ledger
}

func newOutcome() *outcome {
	return &outcome{m: newMetrics(), absent: map[string]string{}}
}

type workloadDef struct {
	why string
	run func(e *env) (*outcome, error)
	// ledger adds the traced run's per-layer metrics.
	ledger func(e *env, o *outcome) error
}

var workloads = map[string]workloadDef{
	"grid":   {whyGrid, runGrid, ledgerGrid},
	"timing": {whyTiming, runTiming, ledgerTiming},
	"serve":  {whyServe, runServe, ledgerServe},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	wl := flag.String("workload", "", "workload to run: grid, timing or serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (serve script, timing cell order)")
	seconds := flag.Int("seconds", 10, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	root := flag.String("root", ".", "checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory of the built binaries")
	child := flag.Bool("child", false, "internal: run one timing pass as a child process")
	pass := flag.Int("pass", 0, "internal: timing pass number of a -child run")
	record := flag.Bool("record-refs", false, "rewrite perfbench/ref from this checkout's program instead of benchmarking")
	flag.Parse()

	if *child {
		return timingChild(*seed, *pass, *trace == 1)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	if *record {
		return recordRefs(absRoot, absBin)
	}
	def, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want grid, timing or serve)", *wl)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-"+*wl+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{root: absRoot, bin: absBin, work: work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU()}

	rep, err := runWorkload(*wl, def, e, *trace == 1)
	if err != nil {
		return err
	}
	rep.Workload, rep.Why, rep.Seed, rep.Seconds = *wl, def.why, *seed, *seconds
	rep.Provenance = captureProvenance(absRoot)
	return emit(rep, absRoot, *trace == 1)
}

// report is the full result of one run, written to
// .bench_build/reports/ and summarised on standard output.
type report struct {
	Workload   string               `json:"workload"`
	Why        string               `json:"why"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Traced     bool                 `json:"traced"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Metrics    map[string]metric    `json:"metrics"`
	Order      []string             `json:"order"`
	Absent     map[string]string    `json:"absent,omitempty"`
	Notes      []string             `json:"notes,omitempty"`
	Provenance provenance           `json:"provenance"`
	Layers     map[string]layerTime `json:"layers,omitempty"`
	spans      []span
}

// runWorkload runs the untraced measurement, and for a traced run a
// second, traced measurement plus the layer ledger. Any correctness
// failure returns an error.
func runWorkload(name string, def workloadDef, e *env, traced bool) (*report, error) {
	rep := &report{Traced: traced}
	if !traced {
		e.tr = newTracer(false)
		o, err := def.run(e)
		if err != nil {
			return nil, err
		}
		o.m.set("error_rate", "fraction", float64(o.failed)/float64(o.attempted), nil, "failed operations / attempted")
		rep.fill(o)
		return rep, nil
	}
	// Traced: a third of the time untraced, a third traced, and the
	// ledger, which takes about as long again.
	part := *e
	part.seconds = max(e.seconds/3, time.Second)
	part.tr = newTracer(false)
	plain, err := def.run(&part)
	if err != nil {
		return nil, err
	}
	part.tr = newTracer(true)
	o, err := def.run(&part)
	if err != nil {
		return nil, err
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	if err := def.ledger(&part, o); err != nil {
		return nil, err
	}
	tc, _ := o.m.get("cells_per_s")
	pc, _ := plain.m.get("cells_per_s")
	o.m.set("bench.trace_overhead_frac", "fraction", tc.Value/pc.Value, []float64{tc.Value, pc.Value},
		"traced cells_per_s / untraced cells_per_s, both measured in this run")
	dropE2E(o)
	markAbsent(o, name)
	rep.fill(o)
	rep.spans = part.tr.spans
	rep.Layers = layerTimes(part.tr.spans)
	return rep, nil
}

func (r *report) fill(o *outcome) {
	r.Attempted, r.Failed = o.attempted, o.failed
	r.Metrics, r.Order = o.m.m, o.m.names
	r.Absent, r.Notes = o.absent, o.notes
}

// emit prints every metric by name with its unit, writes the full
// report (and, traced, the spans) under .bench_build, and prints the
// result line last.
func emit(r *report, root string, traced bool) error {
	for _, name := range r.Order {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-28s %14.6g %-9s", name, m.Value, m.Unit)
		if len(m.Samples) > 0 {
			line += fmt.Sprintf(" n=%d", len(m.Samples))
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	for _, name := range allLayerMetrics {
		if why, ok := r.Absent[name]; ok {
			fmt.Printf("%-28s %14s %-9s  (%s)\n", name, "absent", "", why)
		}
	}
	dir := filepath.Join(root, ".bench_build", "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, b2i(traced)))
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	if traced {
		if err := writeJSON(base+".spans.json", r.spans); err != nil {
			return err
		}
	}
	fmt.Printf("report: %s.json\n", base)

	names := e2eMetrics
	if traced {
		names = layerMetrics
	}
	out := map[string]map[string]any{}
	for _, n := range names {
		m, ok := r.Metrics[n.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n.name)
		}
		if m.Unit != n.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", n.name, m.Unit, n.unit)
		}
		out[n.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.Attempted, "failed": r.Failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
