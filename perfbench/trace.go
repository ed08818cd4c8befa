package main

import (
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into a layer's
// public functions: what was called, when, and which span caused it
// (Parent 0 is a root). Spans live in memory and are written out when
// the run ends; the program under test carries no timers of its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans from any goroutine; a nil or disabled tracer
// records nothing and costs one branch per call, so the untraced run
// measures the same code.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, parent int, start, end int64) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time, which is
// measured whether or not spans are recorded.
func (t *tracer) do(name string, parent int, fn func(id int)) (d time.Duration) {
	id := t.begin(name, parent)
	start := time.Now()
	defer func() {
		d = time.Since(start)
		t.end(id)
	}()
	fn(id)
	return d
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; a child sticking out of its parent counts only inside it).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime is the per-name aggregate of a span set: how many spans,
// their summed duration and their summed self time, in nanoseconds.
type layerTime struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// layerTimes aggregates spans by name.
func layerTimes(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.dur()
		lt.Self += self[s.ID]
		out[s.Name] = lt
	}
	return out
}
