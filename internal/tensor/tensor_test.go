package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	out := NewMat(2, 2)
	MatMul(out, a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range out.Data {
		if v != want[i] {
			t.Fatalf("matmul[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul should panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2))
}

func TestMatVecAgainstMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMat(7, 5)
	m.RandInit(rng, 1)
	v := make([]float32, 5)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	got := make([]float32, 7)
	MatVec(got, m, v)
	// Compare against MatMul with a column vector.
	col := FromSlice(5, 1, v)
	out := NewMat(7, 1)
	MatMul(out, m, col)
	for i := range got {
		if math.Abs(float64(got[i]-out.Data[i])) > 1e-5 {
			t.Fatalf("matvec[%d] = %g, matmul = %g", i, got[i], out.Data[i])
		}
	}
}

func TestVecMatAgainstTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMat(6, 4)
	m.RandInit(rng, 1)
	v := make([]float32, 6)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	got := make([]float32, 4)
	VecMat(got, v, m)
	for j := 0; j < 4; j++ {
		var want float32
		for i := 0; i < 6; i++ {
			want += v[i] * m.At(i, j)
		}
		if math.Abs(float64(got[j]-want)) > 1e-5 {
			t.Fatalf("vecmat[%d] = %g, want %g", j, got[j], want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float32, len(raw))
		for i, r := range raw {
			logits[i] = float32(r) / 8
		}
		out := make([]float32, len(logits))
		Softmax(out, logits)
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(float64(p)) {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxExtremeLogits(t *testing.T) {
	logits := []float32{1000, -1000, 999}
	out := make([]float32, 3)
	Softmax(out, logits)
	for i, p := range out {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatalf("softmax[%d] not finite: %g", i, p)
		}
	}
	if out[0] < out[2] || out[1] > 1e-6 {
		t.Fatalf("softmax ordering wrong: %v", out)
	}
}

func TestLogSumExp(t *testing.T) {
	logits := []float32{0, 1, 2}
	want := math.Log(math.Exp(0) + math.Exp(1) + math.Exp(2))
	if got := LogSumExp(logits); math.Abs(got-want) > 1e-6 {
		t.Fatalf("LogSumExp = %g, want %g", got, want)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(nil) should be -inf")
	}
}

func TestLayerNorm(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	gain := []float32{1, 1, 1, 1}
	bias := []float32{0, 0, 0, 0}
	out := make([]float32, 4)
	LayerNorm(out, x, gain, bias, 1e-5)
	var mean, variance float64
	for _, v := range out {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range out {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-5 || math.Abs(variance-1) > 1e-3 {
		t.Fatalf("layernorm mean=%g var=%g", mean, variance)
	}
}

func TestLayerNormAffine(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	gain := []float32{2, 2, 2, 2}
	bias := []float32{5, 5, 5, 5}
	out := make([]float32, 4)
	LayerNorm(out, x, gain, bias, 1e-5)
	var mean float64
	for _, v := range out {
		mean += float64(v)
	}
	mean /= 4
	if math.Abs(mean-5) > 1e-4 {
		t.Fatalf("affine layernorm mean = %g, want 5", mean)
	}
}

func TestGELU(t *testing.T) {
	x := []float32{-10, -1, 0, 1, 10}
	GELU(x)
	if x[2] != 0 {
		t.Errorf("GELU(0) = %g", x[2])
	}
	if math.Abs(float64(x[4]-10)) > 1e-3 {
		t.Errorf("GELU(10) = %g, want ~10", x[4])
	}
	if math.Abs(float64(x[0])) > 1e-3 {
		t.Errorf("GELU(-10) = %g, want ~0", x[0])
	}
	if math.Abs(float64(x[3]-0.8412)) > 1e-3 {
		t.Errorf("GELU(1) = %g, want ~0.8412", x[3])
	}
}

func TestGELUGradNumeric(t *testing.T) {
	for _, x := range []float32{-3, -1, -0.1, 0, 0.1, 1, 3} {
		const h = 1e-3
		a := []float32{x - h}
		b := []float32{x + h}
		GELU(a)
		GELU(b)
		numeric := (b[0] - a[0]) / (2 * h)
		analytic := GELUGrad(x)
		if math.Abs(float64(numeric-analytic)) > 1e-2 {
			t.Errorf("GELUGrad(%g) = %g, numeric %g", x, analytic, numeric)
		}
	}
}

func TestAxpyAddScale(t *testing.T) {
	y := []float32{1, 2, 3}
	Axpy(2, []float32{1, 1, 1}, y)
	if y[0] != 3 || y[1] != 4 || y[2] != 5 {
		t.Fatalf("axpy result %v", y)
	}
	out := make([]float32, 3)
	Add(out, y, []float32{1, 1, 1})
	if out[2] != 6 {
		t.Fatalf("add result %v", out)
	}
	Scale(0.5, out)
	if out[2] != 3 {
		t.Fatalf("scale result %v", out)
	}
}

func TestArgmaxNorms(t *testing.T) {
	if Argmax([]float32{1, 5, 3}) != 1 {
		t.Error("argmax wrong")
	}
	if math.Abs(Norm2([]float32{3, 4})-5) > 1e-9 {
		t.Error("norm2 wrong")
	}
	if MaxAbs([]float32{-7, 3}) != 7 {
		t.Error("maxabs wrong")
	}
}

func TestRowSetAtClone(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 || m.Row(1)[2] != 42 {
		t.Fatal("Set/At/Row inconsistent")
	}
	c := m.Clone()
	c.Set(1, 2, 7)
	if m.At(1, 2) != 42 {
		t.Fatal("Clone aliases original")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
}

// refMatVec is the one-row, one-accumulator loop MatVec replaced, kept as the
// oracle: the blocked kernel must reproduce it bit for bit.
func refMatVec(out []float32, m *Mat, v []float32) {
	for i := 0; i < m.Rows; i++ {
		var acc float32
		for j, x := range m.Row(i) {
			acc += x * v[j]
		}
		out[i] = acc
	}
}

// TestMatVecBitIdenticalToScalar pins MatVec to the scalar oracle on raw bits:
// every rows%4 remainder, fewer than four rows, odd widths, and the stand-in
// model's own shapes.
func TestMatVecBitIdenticalToScalar(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {2, 7}, {3, 33}, {4, 5}, {5, 17}, {6, 1}, {7, 129}, {8, 31}, {13, 64},
		{128, 128}, {512, 128}, {128, 512}, {96, 128},
	}
	rng := rand.New(rand.NewSource(24))
	for _, sh := range shapes {
		m := NewMat(sh[0], sh[1])
		m.RandInit(rng, 1)
		v := make([]float32, sh[1])
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		got, want := make([]float32, sh[0]), make([]float32, sh[0])
		MatVec(got, m, v)
		refMatVec(want, m, v)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%dx%d row %d: blocked %x != scalar %x", sh[0], sh[1], i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// BenchmarkMatVecSet times the 13 GEMVs of one decode step of the benchmark's
// stand-in model (2 layers, d=128, FFN 512, vocab 96) — the in-repo
// counterpart of benchmark/'s tensor.matvec_set_us.
func BenchmarkMatVecSet(b *testing.B) {
	const d, f, vocab, layers = 128, 512, 96, 2
	rng := rand.New(rand.NewSource(1))
	mat := func(r, c int) *Mat {
		m := NewMat(r, c)
		m.RandInit(rng, 0.08)
		return m
	}
	type block struct{ wq, wk, wv, wo, w1, w2 *Mat }
	var blocks [layers]block
	for l := range blocks {
		blocks[l] = block{mat(d, d), mat(d, d), mat(d, d), mat(d, d), mat(f, d), mat(d, f)}
	}
	emb := mat(vocab, d)
	x, y, h, lg := make([]float32, d), make([]float32, d), make([]float32, f), make([]float32, vocab)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	flops := float64(2 * (layers*(4*d*d+2*d*f) + vocab*d))
	for b.Loop() {
		for _, bl := range blocks {
			MatVec(y, bl.wq, x)
			MatVec(y, bl.wk, x)
			MatVec(y, bl.wv, x)
			MatVec(y, bl.wo, x)
			MatVec(h, bl.w1, x)
			MatVec(y, bl.w2, h)
		}
		MatVec(lg, emb, x)
	}
	b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}
