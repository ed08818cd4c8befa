package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

const whyTiming = "the paper's timing matrix on tight heaps through the cold facade path, one cell at a time: " +
	"mark/sweep cycles, arena churn under pressure and the driver; no tapes, store or HTTP"

// minPasses is the fewest passes any workload makes, whatever -seconds
// says: medians need at least three samples.
const minPasses = 3

// passOrder is the seeded cell order of one timing pass.
func passOrder(seed int64, pass int) []cell {
	cs := timingCells()
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// cellResult is one cell execution reported by a timing child.
type cellResult struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
	Err  string  `json:"err,omitempty"`
}

// childResult is a timing child's single output line after "ready".
// SetupMS sums the program's set-up over the pass's cells.
type childResult struct {
	Cells    []cellResult `json:"cells"`
	SetupMS  float64      `json:"setup_ms"`
	Mismatch []string     `json:"mismatch,omitempty"`
	Spans    []span       `json:"spans,omitempty"`
}

// timingChild is one timing pass in its own process: it resolves the
// pass's plan and reference, says ready, runs every cell once through
// the cold path, checks each against the reference, and prints the
// result as one JSON line.
func timingChild(seed int64, pass int, traced bool) error {
	ref, err := timingRef()
	if err != nil {
		return err
	}
	order := passOrder(seed, pass)
	tr := newTracer(traced)
	fmt.Println("ready")
	var res childResult
	for _, c := range order {
		id := tr.begin("timing.cell", 0)
		out, setup, d := runCold(c, tr, id)
		tr.end(id)
		res.SetupMS += ms(setup)
		ob := observe(out)
		res.Cells = append(res.Cells, cellResult{Name: c.name(), MS: ms(d), Err: ob.Err})
		if err := checkCell(ref, c.name(), ob); err != nil {
			res.Mismatch = append(res.Mismatch, err.Error())
		}
	}
	res.Spans = tr.spans
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// timingPass is what the parent measured of one child.
type timingPass struct {
	run time.Duration
	use usage
	res childResult
}

func runTimingChild(e *env, pass int) (timingPass, error) {
	var p timingPass
	cmd := command(e.work, filepath.Join(e.bin, "perfbench"), "-child",
		"-seed", strconv.FormatInt(e.seed, 10), "-pass", strconv.Itoa(pass), "-trace", strconv.Itoa(b2i(e.tr.on)))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return p, err
	}
	if err := cmd.Start(); err != nil {
		return p, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	ready := time.Now()
	readyAt := e.tr.now()
	if rerr == nil && line != "ready\n" {
		rerr = fmt.Errorf("unexpected first line %q", line)
	}
	if rerr == nil {
		line, rerr = br.ReadString('\n')
		p.run = time.Since(ready)
		if rerr == nil {
			rerr = json.Unmarshal([]byte(line), &p.res)
		}
	}
	werr := cmd.Wait()
	p.use = usageOf(cmd.ProcessState)
	if rerr == nil {
		rerr = werr
	}
	if rerr != nil {
		return p, fmt.Errorf("timing child, pass %d: %v: %s", pass, rerr, strings.TrimSpace(stderr.String()))
	}
	// The child's spans are relative to its ready line; rebase them
	// onto this process's clock under one pass span.
	if e.tr.on {
		pid := e.tr.begin("timing.pass", 0)
		base := len(e.tr.spans)
		for _, s := range p.res.Spans {
			parent := pid
			if s.Parent != 0 {
				parent = base + s.Parent
			}
			e.tr.add(s.Name, parent, readyAt+s.Start, readyAt+s.End)
		}
		e.tr.end(pid)
		e.tr.spans[pid-1].Start = readyAt
	}
	return p, nil
}

func runTiming(e *env) (*outcome, error) {
	cells := len(timingCells())
	o := newOutcome()
	perCell := map[string][]float64{}
	var setup, rate, rss, cpu []float64
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < e.seconds; pass++ {
		p, err := runTimingChild(e, pass)
		if err != nil {
			return nil, err
		}
		o.attempted += int64(cells)
		if len(p.res.Mismatch) > 0 {
			return nil, fmt.Errorf("timing: %d cells differ from perfbench/ref/timing.json:\n%s",
				len(p.res.Mismatch), strings.Join(p.res.Mismatch, "\n"))
		}
		if len(p.res.Cells) != cells {
			return nil, fmt.Errorf("timing: child ran %d cells, want %d", len(p.res.Cells), cells)
		}
		ok := 0
		for _, c := range p.res.Cells {
			if c.Err != "" {
				o.failed++
				if pass == 0 {
					o.notes = append(o.notes, fmt.Sprintf("failed cell %s: %s", c.Name, c.Err))
				}
				continue
			}
			ok++
			perCell[c.Name] = append(perCell[c.Name], c.MS)
		}
		setup = append(setup, p.res.SetupMS/1e3)
		rate = append(rate, float64(ok)/p.run.Seconds())
		rss = append(rss, p.use.rssMiB)
		cpu = append(cpu, ms(p.use.cpu)/float64(cells))
	}
	var medians []float64
	for _, c := range timingCells() {
		if xs := perCell[c.name()]; len(xs) > 0 {
			medians = append(medians, median(xs))
		}
	}
	o.m.set("setup_s", "s", median(setup), setup, fmt.Sprintf("collectors.New + heap.New + vm.New summed over a pass's %d cells, median over passes", cells))
	o.m.set("cells_per_s", "1/s", median(rate), rate, "successful cells per second of a pass, median over passes")
	o.m.set("cell_geomean_ms", "ms", geomean(medians), nil,
		fmt.Sprintf("geometric mean over %d cells of each cell's median over passes", len(medians)))
	o.m.set("peak_rss_mb", "MiB", median(rss), rss, "timing process peak RSS, median over passes")
	o.m.set("cpu_ms_per_cell", "ms", median(cpu), cpu, "timing process user+sys CPU / cells, median over passes")
	return o, nil
}

// ledgerTiming adds the timing matrix's layer metrics. Timing never
// touches tapes, the engine, the store or HTTP, so those layers are
// reported absent even though the ledger itself records tapes.
func ledgerTiming(e *env, o *outcome) error {
	cs := timingCells()
	jobs := make([]engine.Job, len(cs))
	for i, c := range cs {
		jobs[i] = c.job()
	}
	if err := runLedger(e, o, jobs, false); err != nil {
		return err
	}
	return nil
}
