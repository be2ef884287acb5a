package fixed

import (
	"math/rand"
	"testing"

	"tokenpicker/internal/tensor"
)

// blockSource is a deliberately non-contiguous RowSource: rows are scattered
// over fixed-size blocks like the serving engine's paged KV cache.
type blockSource struct {
	blocks    [][]float32
	blockRows int
	dim       int
}

func newBlockSource(m *tensor.Mat, blockRows int) *blockSource {
	bs := &blockSource{blockRows: blockRows, dim: m.Cols}
	for r := 0; r < m.Rows; r++ {
		if r%blockRows == 0 {
			bs.blocks = append(bs.blocks, make([]float32, blockRows*m.Cols))
		}
		copy(bs.blocks[r/blockRows][(r%blockRows)*m.Cols:(r%blockRows+1)*m.Cols], m.Row(r))
	}
	return bs
}

func (b *blockSource) Row(r int) []float32 {
	off := (r % b.blockRows) * b.dim
	return b.blocks[r/b.blockRows][off : off+b.dim]
}

// scratchQuantize is the from-scratch reference: shared scale over rows
// [0, n), every row quantized with the shared helper — exactly what the
// pre-incremental kernels did per Attend call.
func scratchQuantize(src tensor.RowSource, n, dim int, bits uint) ([][]int16, float64) {
	var maxMag float32
	for i := 0; i < n; i++ {
		if v := tensor.MaxAbs(src.Row(i)[:dim]); v > maxMag {
			maxMag = v
		}
	}
	scale := ScaleFor(float64(maxMag), bits)
	rows := make([][]int16, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]int16, dim)
		QuantizeRowInto(rows[i], src.Row(i)[:dim], scale, bits)
	}
	return rows, scale
}

func checkAgainstScratch(t *testing.T, got []Vector, gotScale float64, src tensor.RowSource, n, dim int, bits uint) {
	t.Helper()
	want, wantScale := scratchQuantize(src, n, dim, bits)
	if gotScale != wantScale {
		t.Fatalf("n=%d: scale %g != scratch %g", n, gotScale, wantScale)
	}
	if len(got) != n {
		t.Fatalf("n=%d: got %d rows", n, len(got))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("n=%d row %d col %d: %d != scratch %d", n, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestQuantCacheIncrementalMatchesScratch(t *testing.T) {
	const (
		dim  = 16
		bits = 12
		rows = 200
	)
	rng := rand.New(rand.NewSource(7))
	m := tensor.NewMat(rows, dim)
	m.RandInit(rng, 1)
	// Force several scale-epoch bumps at known points.
	for _, r := range []int{0, 31, 32, 100, 150} {
		m.Row(r)[r%dim] = float32(2 + r)
	}

	var qc QuantCache
	for n := 1; n <= rows; n++ {
		got, scale := qc.Sync(m, n, dim, bits)
		checkAgainstScratch(t, got, scale, m, n, dim, bits)
	}
	// The whole point: far fewer full passes than Sync calls.
	if qc.Epochs() >= rows/2 {
		t.Fatalf("%d full quantization epochs over %d syncs: not incremental", qc.Epochs(), rows)
	}
}

func TestQuantCacheEpochBumpsOnlyOnNewMax(t *testing.T) {
	const dim, bits = 8, 12
	m := tensor.NewMat(10, dim)
	for r := 0; r < 10; r++ {
		for j := 0; j < dim; j++ {
			m.Set(r, j, 0.5) // constant magnitude: one epoch, ever
		}
	}
	var qc QuantCache
	for n := 1; n <= 10; n++ {
		qc.Sync(m, n, dim, bits)
	}
	if qc.Epochs() != 1 {
		t.Fatalf("constant-magnitude cache took %d epochs, want 1", qc.Epochs())
	}
	// A larger row must bump the epoch and rescale everything.
	m.Set(9, 0, 9)
	qc.Invalidate() // row 9 changed in place, owner must invalidate
	got, scale := qc.Sync(m, 10, dim, bits)
	checkAgainstScratch(t, got, scale, m, 10, dim, bits)
}

func TestQuantCacheBlockPagedSource(t *testing.T) {
	const (
		dim  = 8
		bits = 12
		rows = 77 // not a multiple of blockRows: last block partial
	)
	rng := rand.New(rand.NewSource(11))
	m := tensor.NewMat(rows, dim)
	m.RandInit(rng, 1)
	bs := newBlockSource(m, 16)

	var qc QuantCache
	for n := 1; n <= rows; n++ {
		got, scale := qc.Sync(bs, n, dim, bits)
		checkAgainstScratch(t, got, scale, bs, n, dim, bits)
	}
}

func TestQuantCacheShrinkAndDimChangeInvalidate(t *testing.T) {
	const bits = 12
	rng := rand.New(rand.NewSource(13))
	m := tensor.NewMat(40, 16)
	m.RandInit(rng, 1)

	var qc QuantCache
	qc.Sync(m, 40, 16, bits)

	// Shrinking n means the source was truncated/rewritten: full rebuild.
	m2 := tensor.NewMat(8, 16)
	m2.RandInit(rng, 3)
	got, scale := qc.Sync(m2, 8, 16, bits)
	checkAgainstScratch(t, got, scale, m2, 8, 16, bits)

	// Changing dim re-strides the memo.
	m3 := tensor.NewMat(12, 8)
	m3.RandInit(rng, 1)
	got, scale = qc.Sync(m3, 12, 8, bits)
	checkAgainstScratch(t, got, scale, m3, 12, 8, bits)

	// Changing bits re-quantizes.
	got, scale = qc.Sync(m3, 12, 8, 8)
	checkAgainstScratch(t, got, scale, m3, 12, 8, 8)
}

func TestQuantCacheSteadyStateIsFree(t *testing.T) {
	const dim, bits = 16, 12
	rng := rand.New(rand.NewSource(17))
	m := tensor.NewMat(64, dim)
	m.RandInit(rng, 1)

	var qc QuantCache
	qc.Sync(m, 64, dim, bits)
	epochs := qc.Epochs()
	allocs := testing.AllocsPerRun(50, func() {
		qc.Sync(m, 64, dim, bits)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sync allocates %g times per call", allocs)
	}
	if qc.Epochs() != epochs {
		t.Fatalf("steady-state Sync re-quantized (epochs %d -> %d)", epochs, qc.Epochs())
	}
}

func TestQuantizeRowIntoMatchesQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float32, 32)
		for i := range xs {
			xs[i] = float32(rng.NormFloat64() * 3)
		}
		want := Quantize(xs, 12)
		got := make([]int16, len(xs))
		QuantizeRowInto(got, xs, want.Scale, 12)
		for i := range got {
			if got[i] != want.Data[i] {
				t.Fatalf("trial %d elem %d: %d != %d", trial, i, got[i], want.Data[i])
			}
		}
		// QuantizeInto must reuse capacity and agree bit-for-bit.
		reuse := QuantizeInto(make(Vector, 0, len(xs)), xs, 12)
		if reuse.Scale != want.Scale {
			t.Fatalf("trial %d: QuantizeInto scale %g != %g", trial, reuse.Scale, want.Scale)
		}
		for i := range reuse.Data {
			if reuse.Data[i] != want.Data[i] {
				t.Fatalf("trial %d elem %d: into %d != %d", trial, i, reuse.Data[i], want.Data[i])
			}
		}
	}
}
