package exec

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingTasks records which slot ran each task and catches double or
// missed execution plus slot aliasing (two concurrent tasks on one slot).
type countingTasks struct {
	ran     []atomic.Int64 // per task: times executed
	slots   []atomic.Int64 // per task: slot that ran it
	inSlot  []atomic.Int64 // per slot: concurrent occupancy
	fail    atomic.Bool
	spin    int // busy work per task, to widen race windows
	maxSlot int
}

func newCountingTasks(n, width, spin int) *countingTasks {
	return &countingTasks{
		ran:     make([]atomic.Int64, n),
		slots:   make([]atomic.Int64, n),
		inSlot:  make([]atomic.Int64, width),
		spin:    spin,
		maxSlot: width,
	}
}

func (c *countingTasks) Do(t, slot int) {
	if slot < 0 || slot >= c.maxSlot {
		c.fail.Store(true)
		return
	}
	if c.inSlot[slot].Add(1) != 1 {
		c.fail.Store(true) // two tasks sharing a slot concurrently
	}
	x := 0
	for i := 0; i < c.spin; i++ {
		x += i
	}
	_ = x
	c.ran[t].Add(1)
	c.slots[t].Store(int64(slot))
	c.inSlot[slot].Add(-1)
}

func (c *countingTasks) check(t *testing.T, n int) {
	t.Helper()
	if c.fail.Load() {
		t.Fatal("slot contract violated (bad index or concurrent slot sharing)")
	}
	for i := 0; i < n; i++ {
		if got := c.ran[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
}

func TestSerialRunsEverythingOnSlotZero(t *testing.T) {
	var e Serial
	if e.Width() != 1 {
		t.Fatalf("serial width %d", e.Width())
	}
	const n = 17
	c := newCountingTasks(n, 1, 0)
	e.Run(n, c)
	c.check(t, n)
	for i := 0; i < n; i++ {
		if c.slots[i].Load() != 0 {
			t.Fatalf("task %d ran on slot %d", i, c.slots[i].Load())
		}
	}
}

func TestPoolRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, width := range []int{2, 3, 8} {
		p := NewPool(width)
		if p.Width() != width {
			t.Fatalf("pool width %d, want %d", p.Width(), width)
		}
		for _, n := range []int{0, 1, 2, width - 1, width, width + 1, 7, 64, 1000} {
			if n < 0 {
				continue
			}
			c := newCountingTasks(n, width, 50)
			p.Run(n, c)
			c.check(t, n)
		}
		p.Close()
		p.Close() // idempotent
	}
}

func TestPoolReusableAcrossBatches(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 200; round++ {
		n := 1 + round%13
		c := newCountingTasks(n, 4, 20)
		p.Run(n, c)
		c.check(t, n)
	}
}

// TestPoolStealsFromStragglers gives slot 0 a chunk of slow tasks and checks
// other slots end up executing some of them: the work-stealing path, not
// just the private chunks.
func TestPoolStealsFromStragglers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs parallel scheduling to observe stealing")
	}
	p := NewPool(4)
	defer p.Close()
	const n = 64
	stolen := false
	for attempt := 0; attempt < 20 && !stolen; attempt++ {
		c := newCountingTasks(n, 4, 2000)
		p.Run(n, c)
		c.check(t, n)
		// Chunk 0 is tasks [0, 16); if any ran on another slot, it was stolen.
		for i := 0; i < 16; i++ {
			if c.slots[i].Load() != 0 {
				stolen = true
			}
		}
	}
	if !stolen {
		t.Log("no steal observed (scheduler timing); span invariants still verified")
	}
}

func TestNewSelectsSerialForNarrowWidths(t *testing.T) {
	if _, ok := New(0).(Serial); !ok {
		t.Fatal("New(0) should be Serial")
	}
	if _, ok := New(1).(Serial); !ok {
		t.Fatal("New(1) should be Serial")
	}
	e := New(3)
	if _, ok := e.(*Pool); !ok {
		t.Fatal("New(3) should be a Pool")
	}
	e.Close()
}

func TestSpanTakeStealMeetInMiddle(t *testing.T) {
	var s span
	s.reset(0, 10)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		v, ok := s.take()
		if !ok {
			t.Fatal("take failed early")
		}
		seen[v] = true
		v, ok = s.steal()
		if !ok {
			t.Fatal("steal failed early")
		}
		seen[v] = true
	}
	if _, ok := s.take(); ok {
		t.Fatal("span should be empty")
	}
	if _, ok := s.steal(); ok {
		t.Fatal("span should be empty")
	}
	if len(seen) != 10 {
		t.Fatalf("claimed %d distinct tasks, want 10", len(seen))
	}
}

func TestSpanConcurrentClaimsAreDisjoint(t *testing.T) {
	var s span
	const n = 10000
	s.reset(0, n)
	var claimed [n]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				var v int
				var ok bool
				if w%2 == 0 {
					v, ok = s.take()
				} else {
					v, ok = s.steal()
				}
				if !ok {
					return
				}
				claimed[v].Add(1)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if c := claimed[i].Load(); c != 1 {
			t.Fatalf("task %d claimed %d times", i, c)
		}
	}
}

// TestPoolRunSteadyStateZeroAllocs guards the executor itself: dispatching a
// warm batch must not allocate, or every decode step pays per-layer garbage.
func TestPoolRunSteadyStateZeroAllocs(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	c := newCountingTasks(8, 3, 10)
	run := func() { p.Run(8, c) }
	for i := 0; i < 5; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state Pool.Run allocates %g times per call", allocs)
	}
	// A pool another caller holds runs the batch inline.
	p.busy.Store(true)
	defer p.busy.Store(false)
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("busy-pool Pool.Run allocates %g times per call", allocs)
	}
	for i := 0; i < 8; i++ {
		if c.slots[i].Load() != 0 {
			t.Fatalf("busy pool ran task %d on slot %d, want inline on 0", i, c.slots[i].Load())
		}
	}
}

// TestPoolConcurrentRunsRace drives one pool from several goroutines at once,
// the shared pool's situation when decoders on different goroutines step
// together: a Run that finds the pool busy runs inline on slot 0, so every
// task still runs exactly once, on a slot below its batch's parts, and no
// caller's slot is entered twice at once.
func TestPoolConcurrentRunsRace(t *testing.T) {
	const (
		width   = 3
		callers = 4
		runs    = 2000
	)
	p := NewPool(width)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < runs; r++ {
				n := 1 + rng.Intn(64)
				c := newCountingTasks(n, min(width, n), 20)
				p.Run(n, c)
				if c.fail.Load() {
					errs <- "slot contract violated (slot >= parts or concurrent slot sharing)"
					return
				}
				for i := 0; i < n; i++ {
					if got := c.ran[i].Load(); got != 1 {
						errs <- "a task did not run exactly once"
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSharedIsOneUnclosablePool pins Shared's lifecycle: one executor per
// process, as wide as GOMAXPROCS (Serial on one CPU), Close leaves it
// running, and StatsOf reads its slot accounting.
func TestSharedIsOneUnclosablePool(t *testing.T) {
	ex := Shared()
	if Shared() != ex {
		t.Fatal("Shared returned two executors")
	}
	if w := runtime.GOMAXPROCS(0); ex.Width() != w {
		t.Fatalf("shared width %d, want GOMAXPROCS %d", ex.Width(), w)
	}
	ex.Close()
	const n = 40
	before := StatsOf(ex)
	c := newCountingTasks(n, ex.Width(), 10)
	ex.Run(n, c)
	c.check(t, n)
	if got := StatsOf(ex).Tasks - before.Tasks; ex.Width() > 1 && got != n {
		t.Fatalf("StatsOf(Shared()) counted %d tasks, want %d", got, n)
	}
}
