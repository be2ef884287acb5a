// Package exec provides the intra-step execution strategies behind every
// stage of a decoder layer. A model.Kernel receives one layer's whole
// attention batch at once (model.AttendBatch) — all heads of a single
// session's step, or rows × heads when the serving engine batches token
// rows across sessions — and the engine hands the layer's dense stages
// (Q/K/V, Wo, the FFN) over as blocks of output rows or of whole token rows.
// An Executor schedules the tasks: Serial runs them inline (the reference
// order), Pool fans them out over persistent workers with work-stealing, so
// a single iteration uses every core the host offers instead of walking the
// tasks one at a time.
//
// Shared is the process-wide Pool: a lone decoding stream otherwise leaves
// all cores but one idle. Library decoders default to it, and a serving
// runner steps on it whenever it is the only runner of the process inside
// an iteration (busy runners already fill the cores, so they run serial).
//
// The contract that keeps parallel execution bit-identical to serial: tasks
// are independent (task t only writes its own output slice and slot-private
// scratch), so the schedule cannot reorder any floating-point reduction.
// Cross-head state (SpAtten's importance table, transfer statistics) is
// sharded per slot and merged deterministically by the kernel, never inside
// the executor.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Tasks is one batch of independent tasks, indexed [0, n).
type Tasks interface {
	// Do executes task t using scratch slot slot. The executor guarantees
	// calls sharing a slot never overlap in time, so per-slot scratch
	// (quantization buffers, score arrays, stats shards) needs no locking.
	Do(t, slot int)
}

// Executor schedules a batch of independent tasks over scratch slots.
// Concurrent Runs on one Executor are allowed, each with its own Tasks and
// scratch: Serial runs inline, and a Pool that another caller holds runs
// the batch inline on slot 0. Close must not overlap a Run.
type Executor interface {
	// Width is the number of scratch slots callers must provision. Tasks
	// only ever see slots in [0, Width()).
	Width() int
	// Run executes tasks 0..n-1 and returns once all have completed.
	Run(n int, tasks Tasks)
	// Close releases executor resources (worker goroutines). Run must not
	// be called afterwards; Close is idempotent.
	Close()
}

// Serial runs every task inline on slot 0 — the reference executor, and the
// zero-overhead choice when the host has one core or the batch is tiny.
type Serial struct{}

// Width implements Executor.
func (Serial) Width() int { return 1 }

// Run implements Executor.
//
//topick:noalloc
func (Serial) Run(n int, tasks Tasks) {
	for i := 0; i < n; i++ {
		tasks.Do(i, 0)
	}
}

// Close implements Executor.
func (Serial) Close() {}

// Shared returns the process-wide executor that library decoders default
// to: a Pool with one slot per GOMAXPROCS, or Serial on one CPU. It is
// built on first call and never closed; Close on it does nothing.
func Shared() Executor { return shared() }

var shared = sync.OnceValue(func() Executor {
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return sharedPool{NewPool(w)}
	}
	return Serial{}
})

// sharedPool is the Shared pool: every decoder built since the first call
// holds it, so it cannot be closed.
type sharedPool struct{ *Pool }

// Close implements Executor: the shared pool stays up for the process.
func (sharedPool) Close() {}

// New returns Serial for width <= 1, else a Pool of the given width.
func New(width int) Executor {
	if width <= 1 {
		return Serial{}
	}
	return NewPool(width)
}

// ResolveWidth maps a -parallel flag value to an executor width: 0 means
// one slot per CPU, anything else is taken literally.
func ResolveWidth(flag int) int {
	if flag == 0 {
		return runtime.NumCPU()
	}
	return flag
}

// SlotStats is the execution accounting of one scratch slot (or, summed,
// of a whole executor): tasks run, tasks stolen from another slot's span,
// and cumulative busy time inside task batches.
type SlotStats struct {
	Tasks  int64 `json:"tasks"`
	Steals int64 `json:"steals"`
	BusyNs int64 `json:"busy_ns"`
}

// StatsOf returns ex's aggregate slot stats when it collects them: a Pool,
// the Shared one included, does for the batches it spreads over its slots;
// Serial, and a batch a busy or too-small Pool runs inline, count nothing.
func StatsOf(ex Executor) SlotStats {
	switch p := ex.(type) {
	case *Pool:
		return p.StatsTotal()
	case sharedPool:
		return p.StatsTotal()
	}
	return SlotStats{}
}

// slotStat is the padded per-slot accounting cell: slots publish with
// atomic adds once per batch, readers (metrics scrapes) merge on read.
type slotStat struct {
	tasks  atomic.Int64
	steals atomic.Int64
	busy   atomic.Int64
	_      [40]byte
}

// span is a [lo, hi) range of pending task indices packed into one atomic
// word (hi<<32 | lo). The owning slot takes from the front, thieves take
// from the back, and a CAS arbitrates the last element. Each span fills a
// cache line, so slots taking from their own spans do not contend.
type span struct {
	state atomic.Uint64
	_     [56]byte
}

func pack(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

func (s *span) reset(lo, hi int) { s.state.Store(pack(uint32(lo), uint32(hi))) }

// take claims the front element (owner side).
func (s *span) take() (int, bool) {
	for {
		st := s.state.Load()
		lo, hi := uint32(st), uint32(st>>32)
		if lo >= hi {
			return 0, false
		}
		if s.state.CompareAndSwap(st, pack(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// steal claims the back element (thief side).
func (s *span) steal() (int, bool) {
	for {
		st := s.state.Load()
		lo, hi := uint32(st), uint32(st>>32)
		if lo >= hi {
			return 0, false
		}
		if s.state.CompareAndSwap(st, pack(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// Pool executes batches on width persistent scratch slots: the caller works
// slot 0 and up to width-1 resident goroutines join as slots 1..parts-1. Each
// Run splits the task range into one contiguous chunk per slot; a slot drains
// its own chunk from the front and then steals from the other chunks' backs,
// so an expensive straggler task (one head with many surviving tokens) never
// idles the rest of the machine, and a worker that is slow to wake costs
// nothing: the caller steals its chunk.
//
// The handoff never makes a batch wait for a sleeping worker. Run opens the
// batch in one atomic word, sends wake tokens without blocking, works, and
// then closes the batch: a worker that had not joined by then is no longer
// waited for, only those that joined are. A worker that finishes a batch
// spin-polls the word for spinWindow before it parks, so back-to-back batches
// (the layers of one decode step) find it awake.
//
// Run is safe to call from several goroutines at once: a Run that finds the
// pool held by another caller runs its batch inline on slot 0. Slots index
// the caller's own scratch, so two callers never share one. Run performs no
// allocation in steady state, preserving the decode hot path's zero-alloc
// guarantee.
type Pool struct {
	width int
	spans []span
	stats []slotStat
	wakes []chan struct{} // one per resident worker; a buffered token is a pending wake
	busy  atomic.Bool     // a caller holds the pool
	// batch is the handoff word: generation<<genShift | open bit |
	// parts<<partsShift | workers joined. Workers join by CAS while the open
	// bit is set and the batch has a free slot; the generation makes a stale
	// CAS from an earlier batch fail.
	batch atomic.Uint64
	done  atomic.Uint64 // joined workers of the current batch that finished
	spin  time.Duration // spinWindow; 0 at GOMAXPROCS 1, where a spinning worker holds the caller's only P
	once  sync.Once     // Close

	// The current batch's tasks, written by Run before it opens the batch
	// (the open store publishes it to joiners).
	tasks Tasks
}

// Layout of Pool.batch.
const (
	joinedMask = 1<<16 - 1
	partsShift = 16
	openBit    = 1 << 32
	genShift   = 33
	maxWidth   = joinedMask // parts and joined must fit their 16 bits
)

// spinWindow is how long a worker that finished a batch keeps polling for
// the next one before it parks. Parking and waking a worker costs tens of
// microseconds on a virtualised host, more than one layer's attention at
// short context; the window bridges the gap between the layers of a step.
// The poll yields the CPU between reads, so a worker the OS has put on the
// caller's CPU does not halve the caller's speed.
const spinWindow = 200 * time.Microsecond

// NewPool starts a pool executor of the given width (clamped to
// [1, 65535]).
func NewPool(width int) *Pool {
	width = min(max(width, 1), maxWidth)
	p := &Pool{
		width: width,
		spans: make([]span, width),
		stats: make([]slotStat, width),
		wakes: make([]chan struct{}, width-1),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		p.spin = spinWindow
	}
	for i := range p.wakes {
		p.wakes[i] = make(chan struct{}, 1)
		go p.work(p.wakes[i])
	}
	return p
}

// Width implements Executor.
func (p *Pool) Width() int { return p.width }

// Run implements Executor.
//
//topick:noalloc
func (p *Pool) Run(n int, tasks Tasks) {
	parts := min(p.width, n)
	if parts <= 1 || !p.busy.CompareAndSwap(false, true) {
		Serial{}.Run(n, tasks)
		return
	}
	p.tasks = tasks
	chunk, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		p.spans[i].reset(lo, hi)
		lo = hi
	}
	p.done.Store(0)
	gen := p.batch.Load()>>genShift + 1
	p.batch.Store(gen<<genShift | openBit | uint64(parts)<<partsShift)
	for i := 0; i < parts-1; i++ {
		select {
		case p.wakes[i] <- struct{}{}:
		default: // the worker has a wake pending, or is awake
		}
	}
	p.participate(0, parts)
	// The batch is dry: every task has been claimed. Close it and wait for
	// the workers that joined, which are finishing their last claimed task.
	joined := p.batch.And(^uint64(openBit)) & joinedMask
	for p.done.Load() != joined {
		runtime.Gosched() // a joiner on this P
		osYield()         // a joiner on this CPU
	}
	// Drop the batch reference: an idle long-lived pool must not pin the
	// last caller's kernel and its captured buffers.
	p.tasks = nil
	p.busy.Store(false)
}

// join claims the next free slot of the open batch, if there is one.
func (p *Pool) join() (slot, parts int, ok bool) {
	for {
		st := p.batch.Load()
		joined, parts := int(st&joinedMask), int(st>>partsShift&joinedMask)
		if st&openBit == 0 || joined+1 >= parts {
			return 0, 0, false
		}
		if p.batch.CompareAndSwap(st, st+1) {
			return joined + 1, parts, true
		}
	}
}

// work is a resident worker's loop: join open batches while they come
// within spinWindow of each other, park on wake otherwise, and exit once
// Close closes wake.
func (p *Pool) work(wake <-chan struct{}) {
	idle := time.Now()
	for {
		if slot, parts, ok := p.join(); ok {
			p.participate(slot, parts)
			p.done.Add(1)
			idle = time.Now()
			continue
		}
		if time.Since(idle) < p.spin {
			osYield()
			continue
		}
		if _, ok := <-wake; !ok {
			return
		}
		idle = time.Now()
	}
}

// participate drains the slot's own chunk front-to-back, then steals from
// the other participants' backs until the batch is dry. Accounting is
// accumulated in locals and published with one atomic add per counter per
// batch, so per-task cost stays a plain increment.
func (p *Pool) participate(slot, parts int) {
	start := time.Now()
	var ran, stolen int64
	tasks := p.tasks
	for {
		t, ok := p.spans[slot].take()
		if !ok {
			break
		}
		tasks.Do(t, slot)
		ran++
	}
	for {
		idle := true
		for v := 1; v < parts; v++ {
			victim := slot + v
			if victim >= parts {
				victim -= parts
			}
			if t, ok := p.spans[victim].steal(); ok {
				tasks.Do(t, slot)
				ran++
				stolen++
				idle = false
			}
		}
		if idle {
			break
		}
	}
	st := &p.stats[slot]
	st.tasks.Add(ran)
	st.steals.Add(stolen)
	st.busy.Add(int64(time.Since(start)))
}

// StatsTotal sums the per-slot accounting without allocating.
//
//topick:noalloc
func (p *Pool) StatsTotal() SlotStats {
	var total SlotStats
	for i := range p.stats {
		total.Tasks += p.stats[i].tasks.Load()
		total.Steals += p.stats[i].steals.Load()
		total.BusyNs += p.stats[i].busy.Load()
	}
	return total
}

// Close implements Executor: stops the resident workers (a spinning worker
// within spinWindow). Must not be called while a Run is in flight.
func (p *Pool) Close() {
	p.once.Do(func() {
		for _, w := range p.wakes {
			close(w)
		}
	})
}
