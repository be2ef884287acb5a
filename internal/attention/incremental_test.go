package attention

import (
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
)

// opaqueSource hides every method of the wrapped RowSource except Row, so
// kernels cannot see the quantized side-car and fall back to from-scratch
// quantization on every call — the pre-incremental behaviour.
type opaqueSource struct{ src tensor.RowSource }

func (o opaqueSource) Row(r int) []float32 { return o.src.Row(r) }

// stripQuant wraps a kernel so its K/V sources lose the side-car.
type stripQuant struct{ inner model.Kernel }

func (s stripQuant) AttendLayer(b model.AttendBatch) {
	keys := make([]tensor.RowSource, b.Heads)
	vals := make([]tensor.RowSource, b.Heads)
	for h := 0; h < b.Heads; h++ {
		keys[h] = opaqueSource{b.Keys[h]}
		vals[h] = opaqueSource{b.Vals[h]}
	}
	b.Keys, b.Vals = keys, vals
	s.inner.AttendLayer(b)
}

// TestIncrementalQuantCacheBitIdenticalLogits decodes the same sequence
// twice per kernel — once with the incremental side-car visible, once forced
// from-scratch — and demands bit-identical logits at every step. The random
// weights produce K/V rows whose running max magnitude grows several times
// over the generation, so scale-epoch bumps are exercised, and the decoder's
// dense cache doubles its storage mid-run, so memo survival across backing
// reallocation is too.
func TestIncrementalQuantCacheBitIdenticalLogits(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 9)
	kernels := []struct {
		name string
		mk   func() model.Kernel
	}{
		{"quantized-exact", func() model.Kernel { return NewQuantizedExact() }},
		{"token-picker", func() model.Kernel { return NewTokenPicker(1e-3) }},
		{"token-picker-extreme", func() model.Kernel { return NewTokenPicker(0.9) }}, // exercises the degenerate fallback
		{"oracle", func() model.Kernel { return NewOracle(1e-3) }},
	}
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range kernels {
		t.Run(tc.name, func(t *testing.T) {
			decInc := model.NewDecoder(params, tc.mk())
			decScr := model.NewDecoder(params, stripQuant{tc.mk()})
			decInc.MustPrompt(prompt)
			decScr.MustPrompt(prompt)
			for step := 0; step < 120; step++ {
				tok := (step * 7) % cfg.VocabSize
				li := decInc.MustStep(tok)
				ls := decScr.MustStep(tok)
				for v := range li {
					if li[v] != ls[v] {
						t.Fatalf("step %d vocab %d: incremental %g != scratch %g",
							step, v, li[v], ls[v])
					}
				}
			}
		})
	}
}

// TestIncrementalDecoderResetBitIdentical checks that Reset invalidates the
// side-car: a second, different sequence on the same decoder must match a
// fresh decoder bit for bit (a stale memo would leak the first sequence's
// quantized rows).
func TestIncrementalDecoderResetBitIdentical(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 10)
	reused := model.NewDecoder(params, NewQuantizedExact())
	reused.MustPrompt([]int{9, 8, 7, 6, 5})
	for step := 0; step < 40; step++ {
		reused.MustStep(step % cfg.VocabSize)
	}
	reused.Reset()

	fresh := model.NewDecoder(params, NewQuantizedExact())
	prompt := []int{1, 3, 5}
	lr := reused.MustPrompt(prompt)
	lf := fresh.MustPrompt(prompt)
	for step := 0; step < 30; step++ {
		tok := (step * 11) % cfg.VocabSize
		for v := range lr {
			if lr[v] != lf[v] {
				t.Fatalf("step %d vocab %d: reused %g != fresh %g", step, v, lr[v], lf[v])
			}
		}
		lr = reused.MustStep(tok)
		lf = fresh.MustStep(tok)
	}
}
