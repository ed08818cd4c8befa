package engine

import (
	"sync"

	"repro/internal/tape"
	"repro/internal/vm"
)

// ledger is the engine's one admission ledger. Under one mutex it owns
// every byte the engine holds resident: the arenas of shards running a
// cell (busy), the quiescent shards pooled between cells of equal arena
// size (idle), and the cached event tapes. -max-heap-bytes is an exact
// check against their sum: a shard's full arena is charged before its
// cell runs, so an admitted cell can never push resident bytes past the
// cap, and pooled shards and cached tapes keep their charges while they
// sit idle.
//
// Idle shards and tapes are evictable. An admission that does not fit
// evicts them — shards largest arena first, then tapes — and sleeps
// only when nothing idle is left and busy bytes alone block it. Because
// the decision to evict and the decision to wait are one step under one
// lock, a waiter can never sleep on a charge it could have reclaimed.
// A cell larger than the cap itself is admitted once nothing else is
// busy: the cap throttles aggregate pressure, it is not a per-job limit.
//
// The lock is never held while a cell runs or a tape records.
type ledger struct {
	mu   sync.Mutex
	cond sync.Cond // broadcast when busy bytes fall or the cap changes

	cap  int64 // aggregate byte cap; 0 = uncapped
	busy int64 // arena bytes of shards running a cell

	// Pooled shards, keyed by arena size: a demographics sweep runs
	// hundreds of cells over identical 512 MiB arenas, and Reset-ing a
	// pooled shard replaces per-cell heap/runtime construction with a
	// handful of slice truncations. Retention is capped at the worker
	// count, the high-water the pool's cells reached anyway.
	idle      map[int][]*vm.Runtime
	idleBytes int64
	idleCount int
	maxIdle   int

	// One event tape per (workload, size) row, recorded on the row's
	// second run: a row's first cell drives with no recorder and only
	// joins driven, because most rows of a deduplicated sweep run once
	// and recording adds up to 100% to a large cell's drive time
	// (DESIGN.md §12). The next cell of the row — or the first cell itself when
	// its own later repeats are the second run — claims the recording
	// slot. Recording is opportunistic singleflight: concurrent cells
	// of the row drive normally, so nobody blocks on a recording in
	// flight. Only complete runs publish.
	tapesOn   bool
	tapes     map[tapeKey]cachedTape
	tapeBytes int64
	recording map[tapeKey]bool
	driven    map[tapeKey]bool
}

// tapeKey identifies a recorded event stream. A tape is a pure
// function of (workload, size): the driver's control flow depends only
// on its deterministic RNG and on graph reads whose Nil-ness every
// collector preserves, so the collector / heap-budget / gc-every /
// repeat axes of the matrix all replay one recording.
type tapeKey struct {
	workload string
	size     int
}

// cachedTape is a published tape and its charge (tape.MemBytes).
type cachedTape struct {
	t     *tape.Tape
	bytes int64
}

// cell is what admission hands one job: the pooled shard to Reset (nil
// to build a fresh one), the cached tape to replay (nil to drive), and
// whether the job holds its row's recording claim.
type cell struct {
	rt     *vm.Runtime
	tape   *tape.Tape
	record bool
}

func (l *ledger) init(maxIdle int) {
	l.cond.L = &l.mu
	l.idle = make(map[int][]*vm.Runtime)
	l.maxIdle = maxIdle
	l.tapesOn = true
	l.tapes = make(map[tapeKey]cachedTape)
	l.recording = make(map[tapeKey]bool)
	l.driven = make(map[tapeKey]bool)
}

// used is every resident byte the ledger accounts for. Callers hold mu.
func (l *ledger) used() int64 { return l.busy + l.idleBytes + l.tapeBytes }

// admit charges an n-byte arena as busy — popping a pooled shard of
// that size, or reserving fresh bytes once they fit — and then looks up
// the row's tape. On a miss with no recording in flight, a cell that is
// the row's second run (the row was driven before, or the job repeats)
// claims the recording slot; a first run only marks the row driven.
func (l *ledger) admit(n int, k tapeKey, repeats int) cell {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := cell{rt: l.admitShard(n)}
	if l.tapesOn {
		if ct, ok := l.tapes[k]; ok {
			c.tape = ct.t
		} else if !l.recording[k] {
			if l.driven[k] || repeats >= 2 {
				l.recording[k] = true
				c.record = true
			} else {
				l.driven[k] = true
			}
		}
	}
	return c
}

// admitShard is admit's byte half. Callers hold mu.
func (l *ledger) admitShard(n int) *vm.Runtime {
	b := int64(n)
	for {
		if rt := l.popIdle(n); rt != nil {
			// A pooled shard already carries its charge: moving it
			// from idle to busy never changes the total.
			l.busy += b
			return rt
		}
		if l.cap == 0 || l.used()+b <= l.cap {
			break
		}
		if l.evictShard() || l.evictTape() {
			continue
		}
		if l.busy == 0 {
			break // oversized: runs alone
		}
		l.cond.Wait()
	}
	l.busy += b
	return nil
}

// evictShard drops the pooled shard with the largest arena — the one
// that frees the most per eviction — and reports whether there was one.
func (l *ledger) evictShard() bool {
	best := -1
	for size, stack := range l.idle {
		if len(stack) > 0 && size > best {
			best = size
		}
	}
	return best >= 0 && l.popIdle(best) != nil
}

// popIdle removes a pooled shard of the given arena size from the idle
// charges and returns it, or returns nil when there is none.
func (l *ledger) popIdle(size int) *vm.Runtime {
	stack := l.idle[size]
	if len(stack) == 0 {
		return nil
	}
	rt := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	l.idle[size] = stack[:len(stack)-1]
	l.idleCount--
	l.idleBytes -= int64(size)
	return rt
}

// evictTape drops one cached tape and reports whether there was one.
// Tapes are small beside arenas, so which one goes does not matter; a
// cell already replaying it keeps its reference, and the row re-records
// on its next miss.
func (l *ledger) evictTape() bool {
	for k, ct := range l.tapes {
		delete(l.tapes, k)
		l.tapeBytes -= ct.bytes
		return true
	}
	return false
}

// retire ends an n-byte cell. A non-nil rt is a quiescent shard offered
// back to the pool; it is kept, with its charge, while the pool is under
// its retention cap and the ledger is within the cap (a shard admitted
// alone over the cap is dropped). Otherwise its bytes are released.
func (l *ledger) retire(n int, rt *vm.Runtime) {
	b := int64(n)
	l.mu.Lock()
	l.busy -= b
	if rt != nil && l.idleCount < l.maxIdle && (l.cap == 0 || l.used()+b <= l.cap) {
		l.idle[n] = append(l.idle[n], rt)
		l.idleCount++
		l.idleBytes += b
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// publish installs a completed recording and releases the row's claim.
// The tape is charged without blocking or evicting; one that does not
// fit under the cap is dropped — the cache is an accelerator, never a
// correctness dependency.
func (l *ledger) publish(k tapeKey, t *tape.Tape) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.recording, k)
	if _, ok := l.tapes[k]; ok || !l.tapesOn {
		return
	}
	b := int64(t.MemBytes())
	if l.cap != 0 && l.used()+b > l.cap {
		return
	}
	l.tapes[k] = cachedTape{t: t, bytes: b}
	l.tapeBytes += b
}

// abortRecord releases a recording claim the run could not fulfil (the
// recording run panicked or errored before publish).
func (l *ledger) abortRecord(k tapeKey) {
	l.mu.Lock()
	delete(l.recording, k)
	l.mu.Unlock()
}

// SetMaxHeapBytes caps the aggregate resident bytes of the engine's
// shards and cached tapes (n <= 0 removes the cap) and returns e for
// chaining. Every shard's full arena is charged before its cell runs,
// and a pooled shard or cached tape keeps its charge while idle, so the
// sum never exceeds the cap; under pressure admission evicts pooled
// shards (largest arena first) and then tapes before it waits. A single
// job larger than the cap runs alone rather than deadlocking. Set
// before submitting work: changing the cap drops the pool and the
// cached tapes. The cap does not apply to the generic Do, which has no
// job to charge.
func (e *Engine) SetMaxHeapBytes(n int64) *Engine {
	l := &e.ledger
	l.mu.Lock()
	clear(l.idle)
	l.idleCount, l.idleBytes = 0, 0
	clear(l.tapes)
	l.tapeBytes = 0
	l.cap = max(n, 0)
	l.mu.Unlock()
	l.cond.Broadcast()
	return e
}

// MaxHeapBytes reports the aggregate cap (0 = uncapped).
func (e *Engine) MaxHeapBytes() int64 {
	e.ledger.mu.Lock()
	defer e.ledger.mu.Unlock()
	return e.ledger.cap
}

// ReservedBytes reports the bytes charged against the cap: running and
// pooled shards' arenas plus cached tapes (0 when uncapped).
func (e *Engine) ReservedBytes() int64 {
	e.ledger.mu.Lock()
	defer e.ledger.mu.Unlock()
	if e.ledger.cap == 0 {
		return 0
	}
	return e.ledger.used()
}

// SetTapeCache enables or disables the per-(workload, size) event-tape
// cache and returns e for chaining. Enabled (the default from New), a
// matrix row's first cell drives the workload, its second run records
// the driver's operation stream as a side effect of running it, and
// every later cell of the row — different collector, heap budget,
// gc-every or repeat — replays the tape through the same runtime entry
// points instead of re-running driver logic. A job with two or more
// repeats records on its first repeat. Results are bit-identical either
// way; the cache only removes redundant driver work. Disabling clears
// any cached tapes and forgets which rows have run.
func (e *Engine) SetTapeCache(on bool) *Engine {
	l := &e.ledger
	l.mu.Lock()
	l.tapesOn = on
	if !on {
		clear(l.tapes)
		l.tapeBytes = 0
		clear(l.driven)
	}
	l.mu.Unlock()
	return e
}

// TapeCache reports whether the event-tape cache is enabled.
func (e *Engine) TapeCache() bool {
	e.ledger.mu.Lock()
	defer e.ledger.mu.Unlock()
	return e.ledger.tapesOn
}

// Tapes reports how many event tapes the engine currently caches.
func (e *Engine) Tapes() int {
	e.ledger.mu.Lock()
	defer e.ledger.mu.Unlock()
	return len(e.ledger.tapes)
}
