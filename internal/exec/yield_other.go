//go:build !linux

package exec

import "runtime"

// osYield yields to other goroutines where no thread-level yield is wired
// up.
func osYield() { runtime.Gosched() }
