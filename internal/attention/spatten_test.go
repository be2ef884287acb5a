package attention

import (
	"math"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

func spattenConfig(keep float64, cascade bool) SpAttenConfig {
	cfg := model.TestConfig()
	return SpAttenConfig{
		KeepRatio: keep,
		MinKeep:   4,
		Layers:    cfg.Layers,
		Heads:     cfg.Heads,
		Cascade:   cascade,
		Bits:      12,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []SpAttenConfig{
		{KeepRatio: 0, MinKeep: 1, Layers: 1, Heads: 1, Bits: 12},
		{KeepRatio: 1.5, MinKeep: 1, Layers: 1, Heads: 1, Bits: 12},
		{KeepRatio: 0.5, MinKeep: 0, Layers: 1, Heads: 1, Bits: 12},
		{KeepRatio: 0.5, MinKeep: 1, Layers: 0, Heads: 1, Bits: 12},
		{KeepRatio: 0.5, MinKeep: 1, Layers: 1, Heads: 1, Bits: 40},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
	if err := spattenConfig(0.5, true).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestPersistentPruningShrinksActiveSet(t *testing.T) {
	r := train.TestModel()
	k := NewSpAtten(spattenConfig(0.5, false))
	dec := model.NewDecoder(r.Params, k)
	prompt := r.Held[:64]
	dec.MustPrompt(prompt)
	for i := 0; i < 10; i++ {
		dec.MustStep(r.Held[64+i])
	}
	active := k.ActiveTokens(r.Params.Cfg.Layers - 1)
	// After several 0.5-keep steps the active set must be far below context.
	if len(active) >= dec.Len()*3/4 {
		t.Fatalf("active set %d of %d not pruned", len(active), dec.Len())
	}
	// The newest row must always survive.
	found := false
	for _, row := range active {
		if row == dec.Len()-1 {
			found = true
		}
	}
	if !found {
		t.Fatal("newest token evicted")
	}
}

func TestCascadeVsEndOfStep(t *testing.T) {
	// Cascade pruning within the step touches fewer rows per layer, so K
	// bytes must be strictly lower at equal KeepRatio.
	r := train.TestModel()
	run := func(cascade bool) int64 {
		k := NewSpAtten(spattenConfig(0.4, cascade))
		dec := model.NewDecoder(r.Params, k)
		dec.MustPrompt(r.Held[:96])
		for i := 0; i < 8; i++ {
			dec.MustStep(r.Held[96+i])
		}
		return k.Stats().KBytes
	}
	if cascadeBytes, plain := run(true), run(false); cascadeBytes >= plain {
		t.Fatalf("cascade bytes %d should be below end-of-step %d", cascadeBytes, plain)
	}
}

func TestTrafficBelowBaseline(t *testing.T) {
	r := train.TestModel()
	k := NewSpAtten(spattenConfig(0.3, true))
	dec := model.NewDecoder(r.Params, k)
	dec.MustPrompt(r.Held[:128])
	for i := 0; i < 16; i++ {
		dec.MustStep(r.Held[128+i])
	}
	st := k.Stats()
	if st.KBytes >= st.BaselineKBytes || st.VBytes >= st.BaselineVBytes {
		t.Fatalf("no savings: %+v", st)
	}
	// SpAtten reads K and V for the same active set.
	if st.KBytes != st.VBytes {
		t.Fatalf("K bytes %d != V bytes %d", st.KBytes, st.VBytes)
	}
}

func TestKeepRatioOneIsLossless(t *testing.T) {
	// KeepRatio 1 must reproduce quantized-exact attention outputs: same
	// logits as a fresh decoder using exact attention, within quantization
	// tolerance.
	r := train.TestModel()
	k := NewSpAtten(spattenConfig(1.0, false))
	decP := model.NewDecoder(r.Params, k)
	decE := model.NewDecoder(r.Params, nil)
	toks := r.Held[:48]
	decP.MustPrompt(toks)
	decE.MustPrompt(toks)
	for i := 0; i < 12; i++ {
		lp := decP.MustStep(r.Held[48+i])
		le := decE.MustStep(r.Held[48+i])
		for v := range lp {
			if math.Abs(float64(lp[v]-le[v])) > 0.2 {
				t.Fatalf("step %d vocab %d: pruned %g vs exact %g", i, v, lp[v], le[v])
			}
		}
	}
	if st := k.Stats(); st.KBytes != st.BaselineKBytes {
		t.Fatalf("keep=1 should fetch baseline bytes: %+v", st)
	}
}

func TestLowerKeepRatioDegradesPPLMore(t *testing.T) {
	if testing.Short() {
		t.Skip("trained-model test skipped in -short mode")
	}
	r := train.TestModel()
	held := r.Held
	if len(held) > 300 {
		held = held[:300]
	}
	ppl := func(keep float64) float64 {
		return train.Perplexity(r.Params, held, NewSpAtten(spattenConfig(keep, true)), 32)
	}
	full := ppl(1.0)
	tight := ppl(0.15)
	if tight < full*0.98 {
		t.Fatalf("keep=0.15 PPL %.3f implausibly better than keep=1 %.3f", tight, full)
	}
}

func TestMinKeepFloor(t *testing.T) {
	r := train.TestModel()
	cfg := spattenConfig(0.01, false)
	cfg.MinKeep = 6
	k := NewSpAtten(cfg)
	dec := model.NewDecoder(r.Params, k)
	dec.MustPrompt(r.Held[:64])
	for i := 0; i < 6; i++ {
		dec.MustStep(r.Held[64+i])
	}
	if len(k.ActiveTokens(r.Params.Cfg.Layers-1)) < 6 {
		t.Fatalf("active set %d fell below MinKeep", len(k.ActiveTokens(r.Params.Cfg.Layers-1)))
	}
}
