package exec

import "syscall"

// osYield gives this thread's CPU to any other runnable thread. A spinning
// worker that the OS has placed on the caller's CPU must not take half of
// it: runtime.Gosched only yields to goroutines on the same P.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
