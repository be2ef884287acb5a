// Package tensor provides the minimal float32 linear-algebra kernels the
// transformer substrate is built on: flat row-major matrices, GEMM/GEMV,
// softmax, layer normalization, and GELU. Everything is stdlib-only and
// deterministic. The rule for the inner loops: independent sums may run side
// by side (MatVec computes four output rows per pass), but one sum is never
// split over several accumulators — every float32 sum adds its terms in
// ascending index order, rounding each product before the add, so results do
// not depend on the unroll width and a faster loop leaves every downstream
// bit where it was. SIMD follows the same rule: a vector lane is one
// output's whole sum, so each amd64 AVX kernel writes its Go loop's bits:
//   - the panel GEMV (Panels): a lane per output row, so it writes MatVec's
//     bits. The inference engine splits a GEMV across output rows at
//     multiples of the panel height, PanelRows (8), so every block is whole
//     panels;
//   - AxpyRows, exact attention's value pass: a lane per output column,
//     summed over the rows in ascending order;
//   - DotRows, exact attention's score pass: a lane per key row, summed over
//     the columns in ascending order.
//
// The two row kernels take rows stored back to back, as RowSource.Span
// hands them out. UseKernels switches every kernel off for tests, and the
// purego build tag compiles none of them.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// RowSource is a row-indexed view of a matrix: anything that can hand out
// rows of float32. Mat is the dense implementation; the serving engine's
// block-paged KV cache is a non-contiguous one. Attention kernels read K/V
// through this interface so both storage layouts share one code path.
type RowSource interface {
	// Row returns row r.
	Row(r int) []float32
	// Span returns rows r, r+1, … as they lie back to back in storage: the
	// rest of a dense matrix, or the rest of the block that holds row r.
	// Its length is a positive multiple of the row width, and it may run
	// past the rows the caller reads. AxpyRows and DotRows take spans.
	Span(r int) []float32
}

// Grow returns buf resized to n elements. When capacity is short it
// reallocates to the next power of two (min 64) and copies the old contents,
// so a buffer sized to a context that grows one row per decode step
// reallocates O(log n) times instead of every step. Elements past the old
// length are unspecified (zero only when freshly allocated).
//
//topick:alloc-ok amortized power-of-two growth; steady-state calls reuse capacity
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		c := 64
		for c < n {
			c *= 2
		}
		grown := make([]T, c)
		copy(grown, buf)
		buf = grown
	}
	return buf[:n]
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data len %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row r.
func (m *Mat) Row(r int) []float32 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Span returns rows [r, Rows).
func (m *Mat) Span(r int) []float32 {
	return m.Data[r*m.Cols : m.Rows*m.Cols]
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// RandInit fills the matrix with N(0, std^2) values from rng.
func (m *Mat) RandInit(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// MatMul computes out = a (m x k) * b (k x n). out must be m x n and may not
// alias a or b.
func MatMul(out, a, b *Mat) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for x := range orow {
			orow[x] = 0
		}
		for kk := 0; kk < a.Cols; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatVec computes out = m (rows x cols) * v (cols). out must have length rows.
//
// Four output rows are computed per pass: one load of v[j] feeds four weight
// rows, and the four single-accumulator chains overlap in the pipeline where
// one chain would wait out the add latency on every element. Each out[i] is
// still the sum over j in ascending order into one accumulator, so the result
// does not depend on the unroll width. Each product is rounded to float32
// before it is added (the explicit conversions forbid a fused multiply-add,
// which the Go spec otherwise allows on arm64 and others), so the bits are
// the same on every GOARCH and equal Panels.MatVecRange's.
func MatVec(out []float32, m *Mat, v []float32) {
	if len(v) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: matvec shape mismatch (%dx%d)*%d->%d",
			m.Rows, m.Cols, len(v), len(out)))
	}
	cols := len(v)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		// Re-slice each row to len(v) once so the range loop carries no
		// bounds check.
		w := m.Data[i*cols : (i+4)*cols]
		r0, r1, r2, r3 := w[:cols], w[cols:][:cols], w[2*cols:][:cols], w[3*cols:][:cols]
		var a0, a1, a2, a3 float32
		for j, x := range v {
			a0 += float32(r0[j] * x)
			a1 += float32(r1[j] * x)
			a2 += float32(r2[j] * x)
			a3 += float32(r3[j] * x)
		}
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
	for ; i < len(out); i++ {
		row := m.Data[i*cols:][:cols]
		var acc float32
		for j, x := range v {
			acc += float32(row[j] * x)
		}
		out[i] = acc
	}
}

// VecMat computes out = v (rows) * m (rows x cols), i.e. m^T * v. out must
// have length cols.
func VecMat(out []float32, v []float32, m *Mat) {
	if len(v) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: vecmat shape mismatch %d*(%dx%d)->%d",
			len(v), m.Rows, m.Cols, len(out)))
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		s := v[i]
		if s == 0 {
			continue
		}
		row := m.Row(i)
		for j, x := range row {
			out[j] += s * x
		}
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float32
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Add computes out = a + b elementwise; out may alias a or b.
func Add(out, a, b []float32) {
	if len(a) != len(b) || len(out) != len(a) {
		panic("tensor: add length mismatch")
	}
	for i := range a {
		out[i] = a[i] + b[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Softmax writes the softmax of logits into out (may alias). It uses the
// max-subtraction trick for numerical stability.
func Softmax(out, logits []float32) {
	if len(out) != len(logits) {
		panic("tensor: softmax length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

// LogSumExp returns log(sum(exp(logits))) computed stably.
func LogSumExp(logits []float32) float64 {
	if len(logits) == 0 {
		return math.Inf(-1)
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	return float64(maxv) + math.Log(sum)
}

// LayerNorm normalizes x to zero mean and unit variance, then applies the
// elementwise affine transform gain*xhat + bias, writing into out (may alias
// x). eps guards the variance.
func LayerNorm(out, x, gain, bias []float32, eps float32) {
	n := len(x)
	if len(out) != n || len(gain) != n || len(bias) != n {
		panic("tensor: layernorm length mismatch")
	}
	var mean float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(n)
	var variance float64
	for _, v := range x {
		d := float64(v) - mean
		variance += d * d
	}
	variance /= float64(n)
	inv := float32(1 / math.Sqrt(variance+float64(eps)))
	for i, v := range x {
		out[i] = gain[i]*(v-float32(mean))*inv + bias[i]
	}
}

// GELU applies the tanh-approximation Gaussian error linear unit in place.
func GELU(x []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		f := float64(v)
		x[i] = float32(0.5 * f * (1 + math.Tanh(c*(f+0.044715*f*f*f))))
	}
}

// GELUGrad returns dGELU/dx at x (used by the training substrate).
func GELUGrad(x float32) float32 {
	const c = 0.7978845608028654
	f := float64(x)
	u := c * (f + 0.044715*f*f*f)
	t := math.Tanh(u)
	du := c * (1 + 3*0.044715*f*f)
	return float32(0.5*(1+t) + 0.5*f*(1-t*t)*du)
}

// Argmax returns the index of the largest element.
func Argmax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
