package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tokenpicker/internal/tensor"
)

// refExactAttend is the one-key-at-a-time exact attention ExactKernel's
// blocked loops replaced (scalar dot per key, softmax, one Axpy per value
// row), kept as the oracle. It carries its own dot and axpy loops so it stays
// scalar whatever tensor.Dot and tensor.Axpy become.
func refExactAttend(out, q []float32, keys, vals tensor.RowSource, n int, scale, slope float32) {
	scores := refScores(q, keys, n, scale, slope)
	probs := make([]float32, n)
	tensor.Softmax(probs, scores)
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < n; i++ {
		v := vals.Row(i)
		for j := range out {
			out[j] += probs[i] * v[j]
		}
	}
}

func refScores(q []float32, keys tensor.RowSource, n int, scale, slope float32) []float32 {
	scores := make([]float32, n)
	for i := 0; i < n; i++ {
		k := keys.Row(i)
		var acc float32
		for j := range q {
			acc += q[j] * k[j]
		}
		scores[i] = scale*acc - slope*float32(n-1-i)
	}
	return scores
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestExactKernelBitIdenticalToScalar pins ExactKernel (and the Scores probe,
// which shares its score loop) to the scalar oracle on raw bits for every
// context length 1..70 — all four n%4 remainders — on every (layer, head) of
// a dense-cached decoder. The paged-cache half of the statement lives in
// internal/serve (TestExactKernelPagedBitIdenticalToDense).
func TestExactKernelBitIdenticalToScalar(t *testing.T) {
	cfg := Family()[4].StandIn
	p := NewParams(cfg, 9)
	dec := NewDecoder(p, nil)
	const maxN = 70
	prompt := make([]int, maxN)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.VocabSize
	}
	dec.MustPrompt(prompt)

	rng := rand.New(rand.NewSource(10))
	q := make([]float32, cfg.HeadDim)
	got, want := make([]float32, cfg.HeadDim), make([]float32, cfg.HeadDim)
	scale := float32(1 / math.Sqrt(float64(cfg.HeadDim)))
	var k ExactKernel
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			keys, vals := dec.Cache(l, h)
			slope := cfg.AlibiSlope(h)
			for n := 1; n <= maxN; n++ {
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				AttendOne(&k, got, q, keys, vals, n, scale, slope, l)
				refExactAttend(want, q, keys, vals, n, scale, slope)
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("layer %d head %d n=%d out[%d]: blocked %g != scalar %g", l, h, n, j, got[j], want[j])
				}
				if i := sameBits(Scores(q, keys, n, scale, slope), refScores(q, keys, n, scale, slope)); i >= 0 {
					t.Fatalf("layer %d head %d n=%d: Scores[%d] differs from scalar", l, h, n, i)
				}
			}
		}
	}
}

// blockRows is a paged RowSource for the span tests: rows in blocks of
// rows rows each, Span the rest of a block.
type blockRows struct {
	blocks  [][]float32
	rows, d int
}

func newBlockRows(m *tensor.Mat, rows int) *blockRows {
	b := &blockRows{rows: rows, d: m.Cols}
	for r := 0; r < m.Rows; r += rows {
		blk := make([]float32, rows*m.Cols)
		copy(blk, m.Data[r*m.Cols:])
		b.blocks = append(b.blocks, blk)
	}
	return b
}

func (b *blockRows) Row(r int) []float32  { return b.Span(r)[:b.d] }
func (b *blockRows) Span(r int) []float32 { return b.blocks[r/b.rows][(r%b.rows)*b.d:] }

// shortSpan cuts every span to one float under a row, leaving the row's
// last float within the slice's capacity.
type shortSpan struct{ *tensor.Mat }

func (s shortSpan) Span(r int) []float32 { return s.Mat.Span(r)[:s.Cols-1] }

// TestExactKernelSpansBitIdenticalToScalar runs ExactKernel and Scores over
// dense and paged sources, with 5- and 32-row blocks so spans end inside a
// group of eight keys and on one, at head widths 6 (the Go loops only), 8,
// 32 and 40, for every context length up to 70 and at 1,025: on the tensor
// kernels and on their forced Go loops, every output must equal the scalar
// oracle's over the dense rows, bit for bit.
func TestExactKernelSpansBitIdenticalToScalar(t *testing.T) {
	for _, path := range []string{"kernel", "fallback"} {
		t.Run(path, func(t *testing.T) {
			useKernels(t, path == "kernel")
			ns := []int{1025}
			for n := 1; n <= 70; n++ {
				ns = append(ns, n)
			}
			rng := rand.New(rand.NewSource(44))
			for _, hd := range []int{6, 8, 32, 40} {
				keys, vals := tensor.NewMat(1025, hd), tensor.NewMat(1025, hd)
				keys.RandInit(rng, 1)
				vals.RandInit(rng, 1)
				srcs := [][2]tensor.RowSource{{keys, vals}}
				for _, rows := range []int{5, 32} {
					srcs = append(srcs, [2]tensor.RowSource{newBlockRows(keys, rows), newBlockRows(vals, rows)})
				}
				q, got, want := make([]float32, hd), make([]float32, hd), make([]float32, hd)
				scale := float32(1 / math.Sqrt(float64(hd)))
				for _, n := range ns {
					for j := range q {
						q[j] = float32(rng.NormFloat64())
					}
					refExactAttend(want, q, keys, vals, n, scale, 0.125)
					wantScores := refScores(q, keys, n, scale, 0.125)
					for s, src := range srcs {
						var k ExactKernel
						AttendOne(&k, got, q, src[0], src[1], n, scale, 0.125, 0)
						if j := sameBits(got, want); j >= 0 {
							t.Fatalf("hd %d source %d n=%d out[%d]: %g != scalar %g", hd, s, n, j, got[j], want[j])
						}
						if i := sameBits(Scores(q, src[0], n, scale, 0.125), wantScores); i >= 0 {
							t.Fatalf("hd %d source %d n=%d: Scores[%d] differs from scalar", hd, s, n, i)
						}
					}
				}
			}
		})
	}
}

// TestExactKernelPanicsOnShortSpan checks that a key or value source whose
// span holds less than one row panics on both paths instead of reading the
// row's last float from beyond the span's length or looping without end.
func TestExactKernelPanicsOnShortSpan(t *testing.T) {
	for _, path := range []string{"kernel", "fallback"} {
		t.Run(path, func(t *testing.T) {
			useKernels(t, path == "kernel")
			for _, hd := range []int{6, 32} {
				m := tensor.NewMat(16, hd)
				short := shortSpan{m}
				q, out := make([]float32, hd), make([]float32, hd)
				for side, src := range [][2]tensor.RowSource{{short, m}, {m, short}} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("hd %d: a short span in the %s did not panic", hd, []string{"keys", "values"}[side])
							}
						}()
						var k ExactKernel
						AttendOne(&k, out, q, src[0], src[1], 16, 1, 0, 0)
					}()
				}
			}
		})
	}
}

// goldenLogitsHash is the FNV-64a of every logit bit of the run below, recorded
// at the commit before the dense loops went four-wide (b6086bd).
const goldenLogitsHash = 0xe3a80e69acc2450b

// TestGoldenLogitsBitIdentical pins the dense path end to end: a fixed-seed
// stand-in decoder consumes a 70-token prompt (three prefill chunks, exact
// attention at n up to 70) and greedy-decodes 8 steps; the hash of all nine
// logits vectors must not move. Any change that reorders a float32 sum in
// MatVec, exact attention, LayerNorm or GELU trips it. amd64 only: elsewhere
// the compiler may fuse x*y+z into one rounding.
func TestGoldenLogitsBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64; other targets may fuse multiply-adds")
	}
	cfg := Family()[4].StandIn
	dec := NewDecoder(NewParams(cfg, 24), nil)
	prompt := make([]int, 70)
	for i := range prompt {
		prompt[i] = (7*31 + i*13) % cfg.VocabSize
	}
	h := fnv.New64a()
	fold := func(logits []float32) {
		var buf [4]byte
		for _, v := range logits {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	logits := dec.MustPrompt(prompt)
	fold(logits)
	for s := 0; s < 8; s++ {
		logits = dec.MustStep(tensor.Argmax(logits))
		fold(logits)
	}
	if got := h.Sum64(); got != goldenLogitsHash {
		t.Fatalf("logits hash %#x, want %#x: a dense-path sum was reordered", got, uint64(goldenLogitsHash))
	}
}

// BenchmarkPrefill256 and BenchmarkPrefill1024 time a library prefill of
// the stand-in model (32-row engine steps, exact attention); the 1,024-token
// one is the in-repo counterpart of benchmark/'s decode_long TTFT, and both
// report benchmark/'s model.prefill_us_per_token.
func BenchmarkPrefill256(b *testing.B)  { benchPrefill(b, 256) }
func BenchmarkPrefill1024(b *testing.B) { benchPrefill(b, 1024) }

func benchPrefill(b *testing.B, n int) {
	cfg := Family()[4].StandIn
	dec := NewDecoder(NewParams(cfg, 1), nil)
	prompt := make([]int, n)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.VocabSize
	}
	for b.Loop() {
		dec.Reset()
		dec.MustPrompt(prompt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(prompt)), "us/token")
}

// BenchmarkExactAttend512 times one exact attention instance (one head, 512
// keys of width 32): the score pass, the softmax and the value pass, on the
// tensor package's Go loops and on its kernels.
func BenchmarkExactAttend512(b *testing.B) {
	const n, hd = 512, 32
	rng := rand.New(rand.NewSource(1))
	keys, vals := tensor.NewMat(n, hd), tensor.NewMat(n, hd)
	keys.RandInit(rng, 1)
	vals.RandInit(rng, 1)
	q, out := make([]float32, hd), make([]float32, hd)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	batch := AttendBatch{
		Rows: 1, Ns: []int{n}, Heads: 1, HeadDim: hd,
		Scale: float32(1 / math.Sqrt(hd)), Slopes: []float32{0.0625},
		Q: q, Out: out,
		Keys: []tensor.RowSource{keys}, Vals: []tensor.RowSource{vals},
	}
	for _, path := range []string{"go", "kernel"} {
		b.Run(path, func(b *testing.B) {
			if !useKernels(b, path == "kernel") {
				b.Skip("no kernel on this CPU or build")
			}
			var k ExactKernel
			for b.Loop() {
				k.AttendLayer(batch)
			}
		})
	}
}

// useKernels switches the tensor kernels on or off until the test ends and
// reports whether the requested setting took: on fails without them.
func useKernels(tb testing.TB, on bool) bool {
	was := tensor.UseKernels(on)
	tb.Cleanup(func() { tensor.UseKernels(was) })
	return tensor.UseKernels(on) == on
}
