package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/results"
)

const whyGrid = "cgsweep renders all 12 demographic figures cold with default flags: " +
	"driver, tape record/replay, runtime dispatch and CG events; no collection-heavy cells, store or HTTP"

//go:embed ref/grid.txt
var gridRef string

// gridCells is the cell count of one full grid: every demographic
// figure's jobs, shared cells counted once per figure (there is no
// store, so cgsweep computes each figure's cells).
func gridCells() (int, []experiments.SweepFig, error) {
	figs, err := experiments.DemographicFigs()
	if err != nil {
		return 0, nil, err
	}
	n := 0
	for _, f := range figs {
		n += len(f.Jobs)
	}
	return n, figs, nil
}

// sections splits a sweep's output into its figures, each with its
// trailing newline; cgsweep separates figures by one empty line.
func sections(out string) []string {
	parts := strings.Split(strings.TrimSuffix(out, "\n"), "\n\n")
	for i := range parts {
		parts[i] += "\n"
	}
	return parts
}

// joinSections renders figures the way cgsweep separates them.
func joinSections(secs []string) string { return strings.Join(secs, "\n") }

// checkGridGoldens compares the grid output's 4.1, 4.5 and 4.11
// sections with the repository's goldens: byte for byte against the
// streamed-sweep golden, and cell for cell (the batch tables pad
// columns differently) against the per-figure table goldens.
func checkGridGoldens(root, out string, figs []experiments.SweepFig) error {
	secs := sections(out)
	if len(secs) != len(figs) {
		return fmt.Errorf("grid: %d figure sections, want %d", len(secs), len(figs))
	}
	byID := map[string]string{}
	for i, f := range figs {
		byID[f.ID] = secs[i]
	}
	dir := filepath.Join(root, "internal", "experiments", "testdata")
	sweep, err := os.ReadFile(filepath.Join(dir, "sweep_4_1_4_5_4_11.golden"))
	if err != nil {
		return err
	}
	if got := joinSections([]string{byID["4.1"], byID["4.5"], byID["4.11"]}); got != string(sweep) {
		return fmt.Errorf("grid: figures 4.1, 4.5 and 4.11 differ from sweep_4_1_4_5_4_11.golden")
	}
	for id, file := range map[string]string{"4.1": "fig41.golden", "4.5": "fig45.golden", "4.11": "fig411.golden"} {
		want, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return err
		}
		if !sameCells(byID[id], string(want)) {
			return fmt.Errorf("grid: figure %s differs from %s", id, file)
		}
	}
	return nil
}

// sameCells compares two renderings of one table ignoring column
// padding and the width of the rule line.
func sameCells(a, b string) bool {
	la, lb := strings.Split(strings.TrimSpace(a), "\n"), strings.Split(strings.TrimSpace(b), "\n")
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if strings.Trim(la[i], "-") == "" && strings.Trim(lb[i], "-") == "" {
			continue
		}
		if strings.Join(strings.Fields(la[i]), " ") != strings.Join(strings.Fields(lb[i]), " ") {
			return false
		}
	}
	return true
}

// gridPass is one cold cgsweep process.
type gridPass struct {
	setup, wall time.Duration
	use         usage
	out         string
	err         error
}

// runCgsweep starts cgsweep, notes when its first byte of output
// arrives (set-up is over: the process is up and the first figure's
// header is written before any cell runs) and waits for it to exit.
func runCgsweep(e *env, parent int) gridPass {
	var p gridPass
	cmd := command(e.work, filepath.Join(e.bin, "cgsweep"), "-workers", strconv.Itoa(e.nproc))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		p.err = err
		return p
	}
	t0 := e.tr.now()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		p.err = err
		return p
	}
	br := bufio.NewReader(stdout)
	first, err := br.Peek(1)
	p.setup = time.Since(start)
	t1 := e.tr.now()
	var buf bytes.Buffer
	if err == nil && len(first) > 0 {
		_, err = io.Copy(&buf, br)
	}
	werr := cmd.Wait()
	p.wall = time.Since(start)
	t2 := e.tr.now()
	if err == nil {
		err = werr
	}
	if err != nil {
		p.err = fmt.Errorf("cgsweep: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	p.use = usageOf(cmd.ProcessState)
	p.out = buf.String()
	e.tr.add("cgsweep.startup", parent, t0, t1)
	e.tr.add("cgsweep.sweep", parent, t1, t2)
	return p
}

func runGrid(e *env) (*outcome, error) {
	cells, figs, err := gridCells()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	setup, err := probeSetup(func() (time.Duration, error) {
		cmd := command(e.work, filepath.Join(e.bin, "cgsweep"), "-workers", strconv.Itoa(e.nproc))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		_, err = bufio.NewReader(stdout).Peek(1)
		d := time.Since(start)
		// A probe needs only the start; the kill cannot fail in a way
		// that matters and the exit status is the kill's.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return d, err
	})
	if err != nil {
		return nil, fmt.Errorf("grid set-up: %w", err)
	}
	var rate, rss, cpu []float64
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < e.seconds; pass++ {
		id := e.tr.begin("grid.pass", 0)
		p := runCgsweep(e, id)
		e.tr.end(id)
		if p.err != nil {
			return nil, fmt.Errorf("grid pass %d: %w", pass, p.err)
		}
		o.attempted += int64(cells)
		if p.out != gridRef {
			return nil, fmt.Errorf("grid: cgsweep output differs from perfbench/ref/grid.txt (pass %d)", pass)
		}
		if pass == 0 {
			if err := checkGridGoldens(e.root, p.out, figs); err != nil {
				return nil, err
			}
		}
		setup = append(setup, p.setup.Seconds())
		rate = append(rate, float64(cells)/p.wall.Seconds())
		rss = append(rss, p.use.rssMiB)
		cpu = append(cpu, ms(p.use.cpu)/float64(cells))
	}
	o.m.set("setup_s", "s", median(setup), setup, "cgsweep start to its first byte of output, median over probes and passes")
	o.m.set("cells_per_s", "1/s", median(rate), rate, fmt.Sprintf("%d cells per cold cgsweep pass / pass wall time, median", cells))
	o.m.set("peak_rss_mb", "MiB", median(rss), rss, "cgsweep peak RSS, median over passes")
	o.m.set("cpu_ms_per_cell", "ms", median(cpu), cpu, "cgsweep user+sys CPU / cells, median over passes")
	return o, nil
}

// ledgerGrid adds the grid's layer metrics: the tape-subtraction
// ledger over every distinct grid cell, an in-process engine pass over
// the grid's jobs (engine and tape-cache counters), and rendering of
// the figures from the collected outcomes.
func ledgerGrid(e *env, o *outcome) error {
	_, figs, err := gridCells()
	if err != nil {
		return err
	}
	var jobs []engine.Job
	for _, f := range figs {
		jobs = append(jobs, f.Jobs...)
	}
	if err := runLedger(e, o, jobs, true); err != nil {
		return err
	}

	// Engine: the grid's jobs, figure by figure as cgsweep runs them,
	// on nproc workers with the default tape cache.
	prog := &obs.Progress{}
	eng := engine.New(e.nproc).SetProgress(prog)
	outcomes := map[string]results.Outcome{}
	var busy time.Duration
	var wall time.Duration
	root := e.tr.begin("engine.grid", 0)
	for _, f := range figs {
		outs := make([]results.Outcome, len(f.Jobs))
		took := make([]time.Duration, len(f.Jobs))
		wall += e.tr.do("engine.figure", root, func(fid int) {
			eng.Do(len(f.Jobs), func(i int) {
				took[i] = e.tr.do("engine.ExecRelease", fid, func(int) {
					eng.ExecRelease(f.Jobs[i], func(r engine.Result) { outs[i] = results.Extract(r) })
				})
			})
		})
		for i, job := range f.Jobs {
			if err := outs[i].Failed(); err != nil {
				return err
			}
			key, err := results.Key(job)
			if err != nil {
				return err
			}
			outcomes[key] = outs[i]
			busy += took[i]
		}
	}
	e.tr.end(root)
	snap := prog.Snapshot()
	o.m.set("engine.exec_ms", "ms", ms(busy), nil, "summed ExecRelease time of one in-process grid pass")
	o.m.set("engine.busy_frac", "fraction", float64(busy)/float64(wall)/float64(eng.Workers()), nil,
		fmt.Sprintf("summed exec time / (%d workers x wall)", eng.Workers()))
	o.m.set("tape.hit_ratio", "fraction", float64(snap.TapeReplays)/float64(snap.TapeReplays+snap.TapesRecorded), nil,
		fmt.Sprintf("%d replays, %d recordings in one grid pass", snap.TapeReplays, snap.TapesRecorded))

	// Rendering: the figures from the collected outcomes through an
	// in-memory backend, so only experiments and table code runs.
	var render, firstRow []float64
	for i := 0; i < 5; i++ {
		w := &rowClock{start: time.Now()}
		d := e.tr.do("experiments.Sweep", 0, func(int) {
			err = experiments.Sweep(memBackend(outcomes), figs, w)
		})
		if err != nil {
			return err
		}
		if w.buf.String() != gridRef {
			return fmt.Errorf("grid: in-memory rendering differs from perfbench/ref/grid.txt")
		}
		render = append(render, ms(d))
		firstRow = append(firstRow, ms(w.firstRow))
	}
	o.m.set("experiments.render_ms", "ms", median(render), render, "experiments.Sweep of all 12 figures over stored outcomes")
	o.m.set("experiments.first_row_ms", "ms", median(firstRow), firstRow, "time to the first data row of that rendering")
	return nil
}

// memBackend serves outcomes by cell key: the rendering path with no
// execution behind it.
type memBackend map[string]results.Outcome

func (m memBackend) Run(jobs []engine.Job, emit func(i int, o results.Outcome)) error {
	for i, job := range jobs {
		key, err := results.Key(job)
		if err != nil {
			return err
		}
		o, ok := m[key]
		if !ok {
			return fmt.Errorf("no outcome for %s", key)
		}
		emit(i, o)
	}
	return nil
}

// rowClock buffers rendered bytes and notes when the first data row
// (the fourth line: title, header and rule come first) is written.
type rowClock struct {
	buf      bytes.Buffer
	start    time.Time
	lines    int
	firstRow time.Duration
}

func (w *rowClock) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte("\n"))
	if w.firstRow == 0 && w.lines >= 4 {
		w.firstRow = time.Since(w.start)
	}
	return w.buf.Write(p)
}
