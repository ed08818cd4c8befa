package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestLedgerArithmetic(t *testing.T) {
	s := split{drive: 100, replay: 60, replayNone: 20, cycle: 15}
	if got := s.driver(); got != 40 {
		t.Errorf("driver = drive - replay = %v, want 40", got)
	}
	if got := s.collector(); got != 40 {
		t.Errorf("collector = replay(col) - replay(none) = %v, want 40", got)
	}
	if got := s.events(); got != 25 {
		t.Errorf("events = collector - cycle = %v, want 25", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out: counted inside only
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	lt := layerTimes(append(spans, span{ID: 7, Name: "a", Start: 200, End: 205}))
	if got := lt["a"]; got.Count != 2 || got.Total != 25 || got.Self != 25 {
		t.Errorf("layer a = %+v, want 2 spans, 25ns total and self", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	v, ok := percentile(xs, 0.90)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, reportable (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.90); ok {
		t.Error("p90 of 99 samples is reportable; only 9 samples lie beyond it")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 90 {
		t.Errorf("p50 of 81..100 = %v, %v; want 90", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is reportable")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestServeScriptSeeded(t *testing.T) {
	a, b := serveScript(7, 2), serveScript(7, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different scripts")
	}
	c := serveScript(8, 2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same script")
	}
	// Only the order and the choice of cells vary: every seed has the
	// same mix, each pool cell is fresh for exactly one client, and a GET
	// asks only for a cell its client already received.
	mix := func(script [][]request) map[string]int {
		m := map[string]int{}
		fresh := map[string]int{}
		for _, reqs := range script {
			got := map[string]bool{}
			for _, r := range reqs {
				m[r.Kind]++
				m["cells-in-sweeps"] += len(r.Cells)
				m["fresh"] += r.Fresh
				for _, cl := range r.Cells[:r.Fresh] {
					fresh[cl.name()]++
					got[cl.name()] = true
				}
				if r.Kind == "get" && !got[r.Cell.name()] {
					t.Errorf("GET of %s before the client received it", r.Cell.name())
				}
			}
		}
		for name, n := range fresh {
			if n != 1 {
				t.Errorf("cell %s is fresh %d times", name, n)
			}
		}
		return m
	}
	if ma, mc := mix(a), mix(c); !reflect.DeepEqual(ma, mc) {
		t.Errorf("request mix depends on the seed: %v vs %v", ma, mc)
	}
	if m := mix(a); m["cells"]+m["figs"] < 50 {
		t.Errorf("a pass has %d sweeps; want at least 50 so a run has far more than 100", m["cells"]+m["figs"])
	}
}

func TestMetricNames(t *testing.T) {
	var all []string
	for _, n := range append(append([]named(nil), e2eMetrics...), layerMetrics...) {
		all = append(all, n.name)
	}
	for _, list := range [][]string{all, allLayerMetrics, e2eOnly} {
		for _, name := range list {
			if !metricName.MatchString(name) || len(name) > 64 {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", name)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("setting a metric named \"p 90\" did not panic")
			}
		}()
		newMetrics().set("p 90", "ms", 1, nil, "")
	}()

	// BENCHMARK.json lists exactly the names the result line carries.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	declared := func(xs []struct{ Name, Unit string }) []named {
		var out []named
		for _, x := range xs {
			out = append(out, named{x.Name, x.Unit})
		}
		return out
	}
	if got := declared(cfg.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, result line carries %v", got, e2eMetrics)
	}
	if got := declared(cfg.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, result line carries %v", got, layerMetrics)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, w := range names(cfg.Workloads) {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w)
		}
	}
}

func TestGridReferenceSections(t *testing.T) {
	_, figs, err := gridCells()
	if err != nil {
		t.Fatal(err)
	}
	secs := sections(gridRef)
	if len(secs) != len(figs) {
		t.Fatalf("reference has %d figures, want %d", len(secs), len(figs))
	}
	if joinSections(secs) != gridRef {
		t.Error("splitting and re-joining the reference does not reproduce it")
	}
	if err := checkGridGoldens("..", gridRef, figs); err != nil {
		t.Error(err)
	}
}

func TestCheckCellRejectsNewFailures(t *testing.T) {
	ok := observables{Instr: 10, GCCycles: 2}
	ref := map[string]observables{"db/1/cg": ok, "jess/100/msa": {Err: "heap exhausted"}}
	for _, tc := range []struct {
		name string
		got  observables
		pass bool
	}{
		{"db/1/cg", ok, true},
		{"db/1/cg", observables{Instr: 11, GCCycles: 2}, false},
		{"db/1/cg", observables{Err: "heap exhausted"}, false}, // a new failure is not a cheaper cell
		{"jess/100/msa", observables{Err: "heap exhausted"}, true},
		{"jess/100/msa", ok, true}, // a later fix
		{"db/10/cg", ok, false},    // no reference
	} {
		if err := checkCell(ref, tc.name, tc.got); (err == nil) != tc.pass {
			t.Errorf("checkCell(%s, %+v) = %v, want pass %v", tc.name, tc.got, err, tc.pass)
		}
	}
	tight := cell{"jess", 100, "msa", 0}.job()
	if !knownFailure(ref, tight) {
		t.Errorf("jess/100/msa on its tight heap is a known failure")
	}
	roomy := tight
	roomy.HeapBytes = 512 << 20
	if knownFailure(ref, roomy) || knownFailure(ref, cell{"db", 1, "cg", 0}.job()) {
		t.Errorf("only tight-heap cells the reference records as failing are known failures")
	}
}
