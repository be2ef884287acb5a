package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsWidths are the row widths the row-kernel tests cover: every block the
// value kernel takes (8, 16, 32, 64 columns and their sums 24, 40, 120, 128)
// and 6, which takes the Go loop.
var rowsWidths = []int{6, 8, 16, 24, 32, 40, 64, 120, 128}

// rowsCounts are the row counts: empty, below one group of eight, one group
// with and without a tail, and a pool block (32) with and without one.
var rowsCounts = []int{0, 1, 7, 8, 9, 31, 32, 33, 1025}

// rowValue draws one element: panelValue's kinds 0–2, and kind 3, which
// mixes every special value into N(0,1) draws: ±0, subnormals, ±Inf and
// NaNs of both signs.
func rowValue(rng *rand.Rand, kind int) float32 {
	if kind < 3 {
		return panelValue(rng, kind)
	}
	switch rng.Intn(16) {
	case 0:
		return float32(math.Copysign(0, -1))
	case 1:
		return 0
	case 2:
		return math.Float32frombits(uint32(1+rng.Intn(1<<23-1)) | uint32(rng.Intn(2))<<31)
	case 3:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 4:
		return math.Float32frombits(0x7fc00000 | uint32(rng.Intn(2))<<31)
	}
	return float32(rng.NormFloat64())
}

func rowValues(rng *rand.Rand, kind, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rowValue(rng, kind)
	}
	return v
}

// refAxpyRows and refDotRows are the one-row-at-a-time oracles: Axpy per
// row and Dot per row, with every product rounded on any GOARCH.
func refAxpyRows(out, w, span []float32) {
	d := len(out)
	for x, wx := range w {
		for j := range out {
			out[j] += float32(wx * span[x*d+j])
		}
	}
}

func refDotRows(out, q, span []float32) {
	d := len(q)
	for x := range out {
		var a float32
		for j, v := range q {
			a += float32(v * span[x*d+j])
		}
		out[x] = a
	}
}

// bothKernelPaths runs f once on the kernels (the Go loops where the CPU or
// the build has none) and once on the forced Go loops.
func bothKernelPaths(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"kernel", "fallback"} {
		t.Run(path, func(t *testing.T) {
			if path == "fallback" {
				forceFallback(t)
			}
			f(t)
		})
	}
}

// TestRowKernelsBitIdenticalToScalar pins AxpyRows and DotRows to the
// row-at-a-time oracles on raw bits (a NaN only has to stay a NaN, see
// sameBits) at every width and row count above, for plain, underflowing,
// Inf-and-zero and every-special-value data in q, the rows and the weights. AxpyRows starts
// from a nonzero out, so the kernel's load of out is checked too, and the
// spans carry spare rows past the ones named.
func TestRowKernelsBitIdenticalToScalar(t *testing.T) {
	bothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, d := range rowsWidths {
			for _, n := range rowsCounts {
				for kind := 0; kind < 4; kind++ {
					what := fmt.Sprintf("d=%d n=%d kind %d", d, n, kind)
					span := rowValues(rng, kind, (n+3)*d)
					q, w := rowValues(rng, kind, d), rowValues(rng, kind, n)

					got, want := make([]float32, n), make([]float32, n)
					DotRows(got, q, span)
					refDotRows(want, q, span)
					sameBits(t, "DotRows "+what, got, want)

					acc := rowValues(rng, kind, d)
					got, want = append([]float32(nil), acc...), append([]float32(nil), acc...)
					AxpyRows(got, w, span)
					refAxpyRows(want, w, span)
					sameBits(t, "AxpyRows "+what, got, want)
				}
			}
		}
	})
}

// TestRowKernelsPanicOnShortSpan checks that a span shorter than the rows
// it must hold panics on both paths, also when the missing floats lie
// within its capacity, so neither a kernel nor a Go loop reads past len.
func TestRowKernelsPanicOnShortSpan(t *testing.T) {
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	bothKernelPaths(t, func(t *testing.T) {
		for _, d := range []int{6, 32} {
			for _, n := range []int{1, 8, 9} {
				full := make([]float32, n*d+d)
				short := full[:n*d-1]
				q, w, out, dots := make([]float32, d), make([]float32, n), make([]float32, d), make([]float32, n)
				mustPanic(t, fmt.Sprintf("DotRows d=%d n=%d", d, n), func() { DotRows(dots, q, short) })
				mustPanic(t, fmt.Sprintf("AxpyRows d=%d n=%d", d, n), func() { AxpyRows(out, w, short) })
			}
		}
	})
}

// BenchmarkAxpyRows and BenchmarkDotRows time one exact attention value or
// score pass over n keys of width 32, the Go loop against the kernel.
func BenchmarkAxpyRows(b *testing.B) {
	benchRows(b, func(out, w, q, span []float32) { AxpyRows(out, w, span) })
}

func BenchmarkDotRows(b *testing.B) {
	benchRows(b, func(out, w, q, span []float32) { DotRows(w, q, span) })
}

func benchRows(b *testing.B, f func(out, w, q, span []float32)) {
	const d = 32
	for _, n := range []int{512, 1024} {
		rng := rand.New(rand.NewSource(1))
		span, q, w := rowValues(rng, 0, n*d), rowValues(rng, 0, d), rowValues(rng, 0, n)
		out := make([]float32, d)
		for _, path := range []string{"go", "kernel"} {
			b.Run(fmt.Sprintf("n%d/%s", n, path), func(b *testing.B) {
				if path == "go" {
					forceFallback(b)
				} else if !useAsm {
					b.Skip("no kernel on this CPU or build")
				}
				for b.Loop() {
					f(out, w, q, span)
				}
			})
		}
	}
}
