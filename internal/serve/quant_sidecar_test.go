package serve

import (
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
)

// TestPagedQuantSideCarBitIdenticalToDense runs the same generation through a
// block-paged decoder and a dense one with quantizing kernels. Both caches
// carry an incremental quantized side-car; the storage layout (contiguous vs
// scattered blocks, including partial tail blocks) must not change a single
// logit bit.
func TestPagedQuantSideCarBitIdenticalToDense(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 21)
	pool := NewPool(5, cfg.HeadDim, 0) // odd block size: rows straddle blocks
	kernels := []struct {
		name string
		mk   func() model.Kernel
	}{
		{"quantized-exact", func() model.Kernel { return attention.NewQuantizedExact() }},
		{"token-picker", func() model.Kernel { return attention.NewTokenPicker(1e-3) }},
	}
	prompt := []int{3, 1, 4, 1, 5, 9, 2, 6}
	for _, tc := range kernels {
		t.Run(tc.name, func(t *testing.T) {
			paged := model.NewDecoderWith(params, tc.mk(), pool.Provider())
			dense := model.NewDecoder(params, tc.mk())
			paged.MustPrompt(prompt)
			dense.MustPrompt(prompt)
			for step := 0; step < 60; step++ {
				tok := (step * 5) % cfg.VocabSize
				lp := paged.MustStep(tok)
				ld := dense.MustStep(tok)
				for v := range lp {
					if lp[v] != ld[v] {
						t.Fatalf("step %d vocab %d: paged %g != dense %g", step, v, lp[v], ld[v])
					}
				}
			}
			paged.Release()
		})
	}
}

// TestRecycledBlocksDoNotLeakQuantMemo completes one pooled session, then
// runs a different sequence through a second session that recycles the first
// one's blocks. A stale side-car would replay the first session's quantized
// rows; the second session must match a fresh dense decoder bit for bit.
func TestRecycledBlocksDoNotLeakQuantMemo(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 22)
	pool := NewPool(4, cfg.HeadDim, 0)

	first := model.NewDecoderWith(params, attention.NewQuantizedExact(), pool.Provider())
	first.MustPrompt([]int{8, 6, 7, 5, 3, 0, 9})
	for step := 0; step < 30; step++ {
		first.MustStep(step % cfg.VocabSize)
	}
	first.Release()
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("blocks still leased after release: %+v", st)
	}

	second := model.NewDecoderWith(params, attention.NewQuantizedExact(), pool.Provider())
	fresh := model.NewDecoder(params, attention.NewQuantizedExact())
	prompt := []int{2, 4, 6}
	ls := second.MustPrompt(prompt)
	lf := fresh.MustPrompt(prompt)
	for step := 0; step < 25; step++ {
		tok := (step * 3) % cfg.VocabSize
		for v := range ls {
			if ls[v] != lf[v] {
				t.Fatalf("step %d vocab %d: recycled %g != fresh %g", step, v, ls[v], lf[v])
			}
		}
		ls = second.MustStep(tok)
		lf = fresh.MustStep(tok)
	}
	if st := pool.Stats(); st.Recycled() == 0 {
		t.Fatalf("second session recycled no blocks: %+v", st)
	}
}
