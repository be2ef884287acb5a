package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// panelValue draws one weight or input for the panel tests. kind 0 is plain
// N(0,1); kind 1 mixes in −0 and subnormals and scales the rest so products
// and sums underflow into the subnormal range; kind 2 mixes in ±Inf and
// zeros, so Inf·0 and Inf−Inf produce NaN.
func panelValue(rng *rand.Rand, kind int) float32 {
	x := float32(rng.NormFloat64())
	switch kind {
	case 1:
		switch rng.Intn(8) {
		case 0:
			return float32(math.Copysign(0, -1))
		case 1:
			return math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31)
		}
		return x * 1e-20
	case 2:
		switch rng.Intn(40) {
		case 0:
			return float32(math.Inf(1))
		case 1:
			return float32(math.Inf(-1))
		case 2, 3:
			return 0
		}
	}
	return x
}

// sameBits requires got to equal want bit for bit, except that a NaN only
// has to stay a NaN: when both operands of an add or a multiply are NaNs,
// x86 returns the first one, and the Go compiler picks that order per
// statement (the same loop may put the product first in one add and the
// sum first in the next), so a NaN's sign and payload are not a property
// of the Go loops a kernel is compared with.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if w != w {
			if g == g {
				t.Fatalf("%s [%d]: %g, want NaN", what, i, g)
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s [%d]: %#08x (%g), want %#08x (%g)", what, i,
				math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// forceFallback routes every kernel through its Go fallback (MatVecRange
// through MatVec) until the test ends.
func forceFallback(t testing.TB) {
	was := UseKernels(false)
	t.Cleanup(func() { UseKernels(was) })
}

// TestPanelsBitIdenticalToMatVec pins the panel GEMV to MatVec on raw bits,
// over every row range [o0, o1) whose ends are multiples of PanelRows or
// Rows, on the kernel and on the forced MatVec fallback: shapes below one
// panel, with a remainder, with panels left after the four-panel passes,
// and the stand-in model's own.
func TestPanelsBitIdenticalToMatVec(t *testing.T) {
	shapes := [][2]int{
		{8, 1}, {8, 3}, {13, 7}, {40, 17}, {45, 33},
		{96, 128}, {128, 128}, {512, 128}, {128, 512},
	}
	for _, path := range []string{"kernel", "fallback"} {
		t.Run(path, func(t *testing.T) {
			if path == "fallback" {
				forceFallback(t)
			}
			rng := rand.New(rand.NewSource(39))
			for _, sh := range shapes {
				rows, cols := sh[0], sh[1]
				for kind := 0; kind < 3; kind++ {
					m := NewMat(rows, cols)
					for i := range m.Data {
						m.Data[i] = panelValue(rng, kind)
					}
					v := make([]float32, cols)
					for i := range v {
						v[i] = panelValue(rng, kind)
					}
					want := make([]float32, rows)
					MatVec(want, m, v)
					p := Pack(m)
					var ends []int
					for e := 0; e < rows; e += PanelRows {
						ends = append(ends, e)
					}
					ends = append(ends, rows)
					for a, o0 := range ends {
						for _, o1 := range ends[a:] {
							got := make([]float32, o1-o0)
							p.MatVecRange(got, o0, o1, v)
							sameBits(t, fmt.Sprintf("%dx%d kind %d [%d,%d)", rows, cols, kind, o0, o1),
								got, want[o0:o1])
						}
					}
				}
			}
		})
	}
}

// TestPanelsPackOnlyWithKernel checks that Pack copies the whole panels
// exactly when the kernel can run, so the fallback costs no memory.
func TestPanelsPackOnlyWithKernel(t *testing.T) {
	p := Pack(NewMat(21, 5))
	want := 0
	if hasAVX {
		want = 16 * 5
	}
	if len(p.data) != want {
		t.Fatalf("packed %d floats, want %d (kernel available: %v)", len(p.data), want, hasAVX)
	}
}

// TestPanelsRangePanics rejects a range that starts inside a panel.
func TestPanelsRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a range starting mid-panel should panic")
		}
	}()
	p := Pack(NewMat(16, 2))
	p.MatVecRange(make([]float32, 4), 4, 8, make([]float32, 2))
}
