package bench

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkDecodeStep measures one generation step per kernel at short and
// long contexts, in both quantization modes, at the default head count on
// the serial executor.
func BenchmarkDecodeStep(b *testing.B) {
	for _, kernel := range DecodeKernels() {
		for _, ctx := range []int{128, 512} {
			b.Run(fmt.Sprintf("%s/ctx=%d/incremental", kernel, ctx), func(b *testing.B) {
				DecodeStepBenchSpec(b, DecodeBenchSpec{Kernel: kernel, Context: ctx})
			})
			if kernel == "exact" {
				continue // no quantization: the modes are identical
			}
			b.Run(fmt.Sprintf("%s/ctx=%d/scratch", kernel, ctx), func(b *testing.B) {
				DecodeStepBenchSpec(b, DecodeBenchSpec{Kernel: kernel, Context: ctx, Scratch: true})
			})
		}
	}
}

// BenchmarkDecodeStepParallel measures the head-parallel pool executor
// against serial execution at the wider head counts the executor targets.
func BenchmarkDecodeStepParallel(b *testing.B) {
	width := runtime.NumCPU()
	if width < 2 {
		width = 2 // still exercise a real pool; measures overhead on 1 CPU
	}
	for _, kernel := range DecodeKernels() {
		for _, heads := range []int{8, 16} {
			for _, par := range []int{1, width} {
				name := fmt.Sprintf("%s/heads=%d/pool=%d", kernel, heads, par)
				b.Run(name, func(b *testing.B) {
					DecodeStepBenchSpec(b, DecodeBenchSpec{
						Kernel: kernel, Context: 512, Heads: heads, Parallel: par,
					})
				})
			}
		}
	}
}
