package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/serve"
)

const whyServe = "a fresh cgserve per pass with nproc closed-loop clients on a seeded script of short cells: " +
	"scheduler, in-flight dedup, store reads beside writes, NDJSON streaming and the pooled engine path"

// serveFigs are the demographic figures the script sweeps: every figure
// whose cells are size 1 or 10, so a pass stays short.
var serveFigs = []string{"4.1", "4.2", "4.3", "4.5", "4.6", "4.11", "A.1", "A.2", "A.3"}

// request is one step of a client's script.
type request struct {
	Kind  string   `json:"kind"` // "cells", "figs" or "get"
	Cells []cell   `json:"cells,omitempty"`
	Fresh int      `json:"fresh,omitempty"` // the first Fresh cells are new to the server
	Figs  []string `json:"figs,omitempty"`
	Cell  *cell    `json:"cell,omitempty"` // get
	Cond  bool     `json:"cond,omitempty"` // get with a matching If-None-Match
}

// serveScript is the seeded request script of each client. Its shape is
// the same for every seed; the seed picks which cells and figures go
// where and in what order:
//
//   - the size-1 and size-10 timing cells are dealt out, each kind of
//     cell evenly, so each cell is fresh for exactly one client and every
//     client has the same mix;
//   - each "cells" sweep asks for two fresh cells plus two repeats of
//     cells this client already received (none in its first sweep), so
//     the share of store hits is fixed;
//   - each client sweeps every figure of serveFigs once, paired with
//     the next one, so sweeps overlap within and across clients;
//   - one GET /cell per cells sweep, of a cell already received,
//     alternately plain and with a matching If-None-Match.
func serveScript(seed int64, clients int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	// Deal each kind of cell (size, collector, forced collection) out
	// evenly, so every client gets the same mix of work whatever the seed.
	groups := map[string][]cell{}
	var kinds []string
	for _, c := range timingCells() {
		if c.Size > 10 {
			continue
		}
		k := fmt.Sprintf("%d/%s/%d", c.Size, c.Collector, c.GCEvery)
		if groups[k] == nil {
			kinds = append(kinds, k)
		}
		groups[k] = append(groups[k], c)
	}
	dealt := make([][]cell, clients)
	next := 0
	for _, k := range kinds {
		g := groups[k]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for _, c := range g {
			dealt[next%clients] = append(dealt[next%clients], c)
			next++
		}
	}
	figs := append([]string(nil), serveFigs...)
	script := make([][]request, clients)
	for c := range script {
		fresh := dealt[c]
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		fresh = fresh[:len(fresh)/2*2]
		var cellsReqs, figReqs []request
		for i := 0; i < len(fresh); i += 2 {
			r := request{Kind: "cells", Cells: []cell{fresh[i], fresh[i+1]}, Fresh: 2}
			if i > 0 {
				for k := 0; k < 2; k++ {
					r.Cells = append(r.Cells, fresh[rng.Intn(i)])
				}
			}
			cellsReqs = append(cellsReqs, r)
		}
		rng.Shuffle(len(figs), func(i, j int) { figs[i], figs[j] = figs[j], figs[i] })
		for i := range figs {
			figReqs = append(figReqs, request{Kind: "figs", Figs: []string{figs[i], figs[(i+1)%len(figs)]}})
		}
		// Interleave: a seeded order of kinds, the first a cells sweep so
		// every GET has a received cell to ask for.
		steps := make([]string, 0, 2*len(cellsReqs)+len(figReqs))
		for range cellsReqs {
			steps = append(steps, "cells", "get")
		}
		for range figReqs {
			steps = append(steps, "figs")
		}
		rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		for i, k := range steps {
			if k == "cells" {
				steps[0], steps[i] = steps[i], steps[0]
				break
			}
		}
		var got []cell
		var nc, nf, ng int
		for _, k := range steps {
			switch k {
			case "cells":
				r := cellsReqs[nc]
				nc++
				got = append(got, r.Cells[:r.Fresh]...)
				script[c] = append(script[c], r)
			case "figs":
				script[c] = append(script[c], figReqs[nf])
				nf++
			case "get":
				pick := got[rng.Intn(len(got))]
				script[c] = append(script[c], request{Kind: "get", Cell: &pick, Cond: ng%2 == 1})
				ng++
			}
		}
	}
	return script
}

// scriptJobs lists every cell the script's sweeps ask for, figure cells
// included, in script order.
func scriptJobs(script [][]request) ([]engine.Job, error) {
	figs, err := experiments.DemographicFigs()
	if err != nil {
		return nil, err
	}
	byID := map[string][]engine.Job{}
	for _, f := range figs {
		byID[f.ID] = f.Jobs
	}
	var jobs []engine.Job
	for _, reqs := range script {
		for _, r := range reqs {
			for _, c := range r.Cells {
				jobs = append(jobs, c.job())
			}
			for _, id := range r.Figs {
				jobs = append(jobs, byID[id]...)
			}
		}
	}
	return jobs, nil
}

// uniqueKeys is the number of distinct cells a pass of the script
// computes: each exactly once, however the clients' sweeps overlap.
func uniqueKeys(script [][]request) (int, error) {
	jobs, err := scriptJobs(script)
	if err != nil {
		return 0, err
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		k, err := results.Key(j)
		if err != nil {
			return 0, err
		}
		keys[k] = true
	}
	return len(keys), nil
}

// controlClient carries the benchmark's own /healthz and /progress
// requests; it keeps no idle connections to servers that are stopped.
var controlClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}

// server is one running cgserve.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	done   chan struct{} // closed when stderr is drained
}

// startServer starts cgserve on a free port with a store in dir and
// returns once /healthz answers ok; the returned duration is set-up.
func startServer(e *env, dir string) (*server, time.Duration, error) {
	cmd := command(e.work, filepath.Join(e.bin, "cgserve"), "-addr", "127.0.0.1:0",
		"-store", dir, "-workers", strconv.Itoa(e.nproc))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "cgserve: serving on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, 0, fmt.Errorf("cgserve exited before serving: %s", s.stderr.String())
		}
		s.base = a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("cgserve did not start within 30s")
	}
	resp, err := controlClient.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop drains the server with SIGTERM and waits for it to exit.
// cgserve prints its serving line before it installs its SIGTERM
// handler, so a set-up probe that stops it at once can kill it outright;
// that still stops it, and nothing was in flight.
func (s *server) stop() (usage, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reports that
	<-s.done
	err := s.cmd.Wait()
	if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		err = fmt.Errorf("cgserve: %v: %s", err, s.stderr.String())
	}
	return usageOf(s.cmd.ProcessState), err
}

// reqResult is one measured request.
type reqResult struct {
	kind          string
	cond          bool
	latency, ttfb time.Duration
	done          serve.DoneStats
	cells         int // cells delivered
	freshElapsed  time.Duration
	lines         [][]byte // outcome events, cells mode
	err           error    // the request failed or its response was wrong
}

// ttfbTransport runs every request of one closed-loop client under the
// pass's context and notes when the latest response's headers arrived.
type ttfbTransport struct {
	ctx     context.Context
	base    *http.Transport
	headers time.Time
}

func (t *ttfbTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req.WithContext(t.ctx))
	t.headers = time.Now()
	return resp, err
}

// client runs one script against a server.
type client struct {
	e        *env
	api      serve.Client
	tr       *ttfbTransport
	name     string
	figSecs  map[string]string // figure id -> its bytes in the grid reference
	figCells map[string]int    // figure id -> its cell count
	ref      map[string]observables
}

// run sends one request and checks the response. Latency runs from
// sending the request to reading the last byte of the response (the
// done event of a sweep); the checks run after it is taken.
func (c *client) run(r request, parent int) reqResult {
	id := c.e.tr.begin("serve."+r.Kind, parent)
	defer c.e.tr.end(id)
	res := reqResult{kind: r.Kind, cond: r.Cond}
	if r.Kind == "get" {
		res.err = c.get(r, &res)
	} else {
		res.err = c.sweep(r, &res)
	}
	return res
}

func (c *client) get(r request, res *reqResult) error {
	key, err := results.Key(r.Cell.job())
	if err != nil {
		return err
	}
	etag := `"` + results.KeyHash(key) + `"`
	req, err := http.NewRequest(http.MethodGet, c.api.Base+"/cell/"+url.PathEscape(key), nil)
	if err != nil {
		return err
	}
	if r.Cond {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := c.api.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	res.latency = time.Since(start)
	if err != nil {
		return err
	}
	res.cells = 1
	switch {
	case r.Cond && resp.StatusCode != http.StatusNotModified:
		return fmt.Errorf("GET %s with If-None-Match: %s, want 304", r.Cell.name(), resp.Status)
	case r.Cond:
		return nil
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("GET %s: %s", r.Cell.name(), resp.Status)
	case resp.Header.Get("ETag") != etag:
		return fmt.Errorf("GET %s: ETag %s, want %s", r.Cell.name(), resp.Header.Get("ETag"), etag)
	}
	o, err := results.Decode(body)
	if err != nil {
		return err
	}
	return checkCell(c.ref, r.Cell.name(), observe(o))
}

// sweep posts one sweep. A scripted sweep asks for cells or for
// figures, never both, so the stream's bytes are either the outcome
// lines or the figures' data.
func (c *client) sweep(r request, res *reqResult) error {
	spec := serve.Spec{Client: c.name, Figs: r.Figs}
	for _, cl := range r.Cells {
		spec.Cells = append(spec.Cells, serve.CellSpec{Workload: cl.Workload, Size: cl.Size,
			Collector: cl.Collector, GCEvery: cl.GCEvery, HeapBytes: engine.TightHeap})
	}
	var buf bytes.Buffer
	start := time.Now()
	done, err := c.api.Sweep(spec, &buf)
	res.latency = time.Since(start)
	res.ttfb = c.tr.headers.Sub(start)
	if err != nil {
		return fmt.Errorf("POST /sweep: %w", err)
	}
	res.done, res.cells = done, int(done.Cells)
	data := buf.String()
	if len(r.Cells) > 0 {
		res.lines = bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
		data = ""
	}
	return c.checkSweep(r, data, res)
}

// checkSweep checks a completed sweep: the figure bytes equal the grid
// reference's sections, every requested cell arrived in order with the
// reference's observables, and the done accounting adds up. It also
// sums the exec time of the sweep's fresh cells.
func (c *client) checkSweep(r request, data string, res *reqResult) error {
	want := int64(len(r.Cells))
	if len(r.Figs) > 0 {
		secs := make([]string, len(r.Figs))
		for i, id := range r.Figs {
			secs[i] = c.figSecs[id]
			want += int64(c.figCells[id])
		}
		if data != joinSections(secs) {
			return fmt.Errorf("sweep of figures %v: streamed bytes differ from the grid reference", r.Figs)
		}
	}
	if len(res.lines) != len(r.Cells) {
		return fmt.Errorf("sweep: %d outcomes for %d cells", len(res.lines), len(r.Cells))
	}
	for i, line := range res.lines {
		o, err := results.Decode(line)
		if err != nil {
			return err
		}
		cl := r.Cells[i]
		if o.Job.Workload != cl.Workload || o.Job.Size != cl.Size || o.Job.GCEvery != cl.GCEvery {
			return fmt.Errorf("sweep: outcome %d is %s/%d, want %s", i, o.Job.Workload, o.Job.Size, cl.name())
		}
		if err := checkCell(c.ref, cl.name(), observe(o)); err != nil {
			return err
		}
		if i < r.Fresh {
			res.freshElapsed += o.Elapsed
		}
	}
	d := res.done
	if d.Cells != want || d.Cells != d.Computed+d.Stored+d.Deduped {
		return fmt.Errorf("sweep: done %+v for %d requested cells; want cells = computed + stored + deduped", d, want)
	}
	return nil
}

// servePass is what one pass measured.
type servePass struct {
	setup, wall time.Duration
	use         usage
	reqs        []reqResult
	tapeHit     float64 // cgserve's tape replays / (replays + recordings), traced only
}

// runServePass starts a fresh cgserve with an empty store, runs every
// client's script concurrently (each closed-loop: one request at a time)
// and drains the server.
func runServePass(e *env, pass int, script [][]request, c0 client) (servePass, error) {
	var p servePass
	dir := filepath.Join(e.work, fmt.Sprintf("store-%d", pass))
	defer os.RemoveAll(dir)
	srv, setup, err := startServer(e, dir)
	if err != nil {
		return p, err
	}
	p.setup = setup
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	pid := e.tr.begin("serve.pass", 0)
	per := make([][]reqResult, len(script))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range script {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c0
			cl.name = fmt.Sprintf("client-%d", i)
			cl.tr = &ttfbTransport{ctx: ctx, base: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer cl.tr.base.CloseIdleConnections()
			cl.api = serve.Client{Base: srv.base, HTTP: &http.Client{Transport: cl.tr}}
			cid := e.tr.begin("serve.client", pid)
			defer e.tr.end(cid)
			for _, r := range script[i] {
				per[i] = append(per[i], cl.run(r, cid))
			}
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(start)
	e.tr.end(pid)
	if e.tr.on {
		p.tapeHit, err = tapeHitRatio(srv.base)
	}
	use, serr := srv.stop()
	p.use = use
	for _, rs := range per {
		p.reqs = append(p.reqs, rs...)
	}
	if err == nil {
		err = serr
	}
	return p, err
}

// tapeHitRatio reads cgserve's tape counters from /progress.
func tapeHitRatio(base string) (float64, error) {
	resp, err := controlClient.Get(base + "/progress")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Progress struct {
			TapesRecorded int64 `json:"tapes_recorded"`
			TapeReplays   int64 `json:"tape_replays"`
		} `json:"progress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("/progress: %w", err)
	}
	p := snap.Progress
	if p.TapeReplays+p.TapesRecorded == 0 {
		return 0, fmt.Errorf("/progress: no tape activity")
	}
	return float64(p.TapeReplays) / float64(p.TapeReplays+p.TapesRecorded), nil
}

func runServe(e *env) (*outcome, error) {
	clients := max(1, e.nproc)
	script := serveScript(e.seed, clients)
	unique, err := uniqueKeys(script)
	if err != nil {
		return nil, err
	}
	figs, err := experiments.DemographicFigs()
	if err != nil {
		return nil, err
	}
	ref, err := timingRef()
	if err != nil {
		return nil, err
	}
	c0 := client{e: e, ref: ref, figSecs: map[string]string{}, figCells: map[string]int{}}
	for i, sec := range sections(gridRef) {
		c0.figSecs[figs[i].ID] = sec
		c0.figCells[figs[i].ID] = len(figs[i].Jobs)
	}

	o := newOutcome()
	probe := 0
	setup, err := probeSetup(func() (time.Duration, error) {
		probe++
		dir := filepath.Join(e.work, fmt.Sprintf("probe-%d", probe))
		defer os.RemoveAll(dir)
		srv, d, err := startServer(e, dir)
		if err != nil {
			return 0, err
		}
		_, err = srv.stop()
		return d, err
	})
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	var rate, rss, cpu, tapeHit []float64
	var sweeps, gets, ttfb, cached, get304, wait []float64
	var cells, stored, deduped int64
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < e.seconds; pass++ {
		p, err := runServePass(e, pass, script, c0)
		if err != nil {
			return nil, fmt.Errorf("serve pass %d: %w", pass, err)
		}
		var delivered, computed int64
		for _, r := range p.reqs {
			o.attempted++
			if r.err != nil {
				return nil, fmt.Errorf("serve pass %d: %w", pass, r.err)
			}
			delivered += int64(r.cells)
			computed += r.done.Computed
			l := ms(r.latency)
			switch {
			case r.kind == "get":
				gets = append(gets, l)
				if r.cond {
					get304 = append(get304, l)
				}
			default:
				sweeps = append(sweeps, l)
				ttfb = append(ttfb, ms(r.ttfb))
				cells += r.done.Cells
				stored += r.done.Stored
				deduped += r.done.Deduped
				if r.done.Computed == 0 {
					cached = append(cached, l)
				}
				if r.kind == "cells" && e.tr.on {
					wait = append(wait, l-ms(r.freshElapsed))
					o.lines = append(o.lines, r.lines...)
				}
			}
		}
		if computed != int64(unique) {
			return nil, fmt.Errorf("serve pass %d: %d cells computed, want each of the %d distinct cells exactly once", pass, computed, unique)
		}
		setup = append(setup, p.setup.Seconds())
		rate = append(rate, float64(delivered)/p.wall.Seconds())
		rss = append(rss, p.use.rssMiB)
		cpu = append(cpu, ms(p.use.cpu)/float64(delivered))
		if e.tr.on {
			tapeHit = append(tapeHit, p.tapeHit)
		}
	}
	o.m.set("setup_s", "s", median(setup), setup, "cgserve start until /healthz is ok, median over probes and passes")
	o.m.set("cells_per_s", "1/s", median(rate), rate,
		fmt.Sprintf("cells delivered (sweep cells + GETs) per second of client time, %d closed-loop clients, median over passes", clients))
	o.m.set("sweep_p50_ms", "ms", median(sweeps), nil, fmt.Sprintf("POST /sweep to done event, n=%d", len(sweeps)))
	if p90, ok := percentile(sweeps, 0.90); ok {
		o.m.set("sweep_p90_ms", "ms", p90, nil, fmt.Sprintf("n=%d", len(sweeps)))
	} else {
		o.absent["sweep_p90_ms"] = fmt.Sprintf("only %d sweeps; a p90 needs %d samples beyond it", len(sweeps), minTail)
	}
	o.m.set("get_p50_ms", "ms", median(gets), nil, fmt.Sprintf("GET /cell, plain and conditional, n=%d", len(gets)))
	o.m.set("peak_rss_mb", "MiB", median(rss), rss, "cgserve peak RSS, median over passes")
	o.m.set("cpu_ms_per_cell", "ms", median(cpu), cpu, "cgserve user+sys CPU / cells delivered, median over passes")
	if e.tr.on {
		o.m.set("serve.ttfb_ms", "ms", median(ttfb), nil, "POST /sweep to response headers, median")
		o.m.set("serve.stream_overhead_ms", "ms", median(cached), nil,
			fmt.Sprintf("latency of sweeps that computed nothing (HTTP, NDJSON and store reads only), median of %d", len(cached)))
		o.m.set("serve.get_304_ms", "ms", median(get304), nil, "GET /cell with a matching If-None-Match, median")
		o.m.set("engine.wait_ms", "ms", median(wait), nil, "cells sweep latency - exec time of its fresh cells, median")
		o.m.set("results.hit_ratio", "fraction", float64(stored)/float64(cells), nil, "sweep cells served from the store")
		o.m.set("results.dedup_ratio", "fraction", float64(deduped)/float64(cells), nil, "sweep cells joined in flight")
		o.m.set("tape.hit_ratio", "fraction", median(tapeHit), tapeHit, "cgserve tape replays / (replays + recordings), median over passes")
	}
	return o, nil
}

// ledgerServe adds the serve workload's layer metrics: the ledger over
// the script's distinct cells, and the results codec and store timed on
// the outcomes the traced run received.
func ledgerServe(e *env, o *outcome) error {
	jobs, err := scriptJobs(serveScript(e.seed, max(1, e.nproc)))
	if err != nil {
		return err
	}
	if err := runLedger(e, o, jobs, true); err != nil {
		return err
	}
	if len(o.lines) == 0 {
		return fmt.Errorf("serve: no outcomes received")
	}
	store, err := results.Open(filepath.Join(e.work, "ledger-store"))
	if err != nil {
		return err
	}
	var dec, enc, put, get []float64
	for _, line := range o.lines {
		var out results.Outcome
		var derr error
		dec = append(dec, float64(e.tr.do("results.Decode", 0, func(int) { out, derr = results.Decode(line) }))/1e3)
		if derr != nil {
			return derr
		}
		enc = append(enc, float64(e.tr.do("results.Encode", 0, func(int) { _, derr = results.Encode(out) }))/1e3)
		if derr == nil {
			put = append(put, ms(e.tr.do("results.Store.Put", 0, func(int) { derr = store.Put(out) })))
		}
		if derr == nil {
			var ok bool
			get = append(get, ms(e.tr.do("results.Store.Get", 0, func(int) { _, ok, derr = store.Get(out.Job) })))
			if derr == nil && !ok {
				derr = fmt.Errorf("store: %s/%d not found after Put", out.Job.Workload, out.Job.Size)
			}
		}
		if derr != nil {
			return derr
		}
	}
	o.m.set("results.decode_us", "us", median(dec), nil, fmt.Sprintf("results.Decode per received outcome, median of %d", len(dec)))
	o.m.set("results.encode_us", "us", median(enc), nil, "results.Encode per outcome, median")
	o.m.set("results.put_ms", "ms", median(put), nil, "Store.Put per outcome, median")
	o.m.set("results.get_ms", "ms", median(get), nil, "Store.Get per outcome, median")
	return nil
}
