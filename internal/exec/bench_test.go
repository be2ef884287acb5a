package exec

import (
	"fmt"
	"testing"
	"time"
)

// spinTasks are tasks of a fixed amount of arithmetic, sized in microseconds
// of this host's time by calibrate.
type spinTasks struct {
	iters int
	sink  [64]uint64 // per-slot results, so the work is not dead code
}

func (s *spinTasks) Do(t, slot int) {
	x := uint64(t + 1)
	for i := 0; i < s.iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	s.sink[slot%len(s.sink)] += x
}

// calibrate returns the iteration count of a task that takes about us
// microseconds.
func calibrate(us int) int {
	s := &spinTasks{iters: 1 << 20}
	start := time.Now()
	s.Do(0, 0)
	perUS := float64(s.iters) / (float64(time.Since(start)) / 1e3)
	return max(1, int(perUS*float64(us)))
}

// BenchmarkPoolRun is the handoff cost of one Run of 4 tasks: Serial runs
// them back to back; Pool(2) is ideally twice as fast, and its excess over
// half the Serial time is the price of waking and joining a worker. Task
// sizes span one head at short context (~3 µs) to one head at long context
// (~130 µs).
func BenchmarkPoolRun(b *testing.B) {
	const tasks = 4
	for _, us := range []int{3, 30, 130} {
		iters := calibrate(us)
		for _, arm := range []struct {
			name string
			ex   Executor
		}{{"Serial", Serial{}}, {"Pool2", NewPool(2)}} {
			b.Run(fmt.Sprintf("task=%dus/%s", us, arm.name), func(b *testing.B) {
				s := &spinTasks{iters: iters}
				for b.Loop() {
					arm.ex.Run(tasks, s)
				}
			})
			arm.ex.Close()
		}
	}
}
