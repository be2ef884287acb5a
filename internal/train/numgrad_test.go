package train

import (
	"math"
	"math/rand"
	"testing"

	"tokenpicker/internal/model"
)

// numGradConfig is deliberately tiny so central differences stay affordable
// and float32 noise stays small.
func numGradConfig() model.Config {
	return model.Config{
		Name:      "numgrad",
		VocabSize: 11,
		Layers:    2,
		Heads:     2,
		HeadDim:   4,
		FFNMult:   2,
		MaxSeq:    32,
		Eps:       1e-5,
	}
}

// TestBackwardMatchesNumericalGradient is the correctness anchor for the
// whole training substrate: every analytically computed gradient must agree
// with a central-difference estimate.
func TestBackwardMatchesNumericalGradient(t *testing.T) {
	cfg := numGradConfig()
	params := model.NewParams(cfg, 3)
	tokens := []int{1, 4, 2, 9, 3, 3, 7, 1, 5}
	acts := newSeqActs(cfg, len(tokens))

	grads := params.CloneZero()
	forwardSeq(params, tokens, acts)
	backwardSeq(params, grads, acts)

	// Collect parameter and gradient slices by name.
	pSlices := map[string][]float32{}
	gSlices := map[string][]float32{}
	params.VisitSlices(func(n string, s []float32) { pSlices[n] = s })
	grads.VisitSlices(func(n string, s []float32) { gSlices[n] = s })

	rng := rand.New(rand.NewSource(99))
	checked := 0
	for name, ps := range pSlices {
		gs := gSlices[name]
		// Sample a few indices per slice.
		nSamples := 4
		if len(ps) < nSamples {
			nSamples = len(ps)
		}
		for s := 0; s < nSamples; s++ {
			idx := rng.Intn(len(ps))
			orig := ps[idx]
			const h = 1e-3
			ps[idx] = orig + h
			lp := forwardSeq(params, tokens, acts)
			ps[idx] = orig - h
			lm := forwardSeq(params, tokens, acts)
			ps[idx] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := float64(gs[idx])
			diff := math.Abs(numeric - analytic)
			tol := 1e-3 + 0.02*math.Max(math.Abs(numeric), math.Abs(analytic))
			if diff > tol {
				t.Errorf("%s[%d]: analytic %.6g vs numeric %.6g (diff %.3g)",
					name, idx, analytic, numeric, diff)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("only %d gradient checks ran", checked)
	}
	// Restore forward state consistency (paranoia: re-run forward).
	forwardSeq(params, tokens, acts)
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := model.TestConfig()
	opts := QuickOptions()
	opts.Steps = 30
	r := Train(cfg, opts)
	// The untrained loss is ~ln(vocab); training must cut it substantially
	// on this highly structured synthetic corpus.
	untrained := math.Log(float64(cfg.VocabSize))
	if r.FinalLoss > untrained*0.85 {
		t.Fatalf("final loss %.3f did not improve over untrained %.3f", r.FinalLoss, untrained)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	cfg := model.TestConfig()
	opts := QuickOptions()
	opts.Steps = 5
	a := Train(cfg, opts)
	b := Train(cfg, opts)
	if a.FinalLoss != b.FinalLoss {
		t.Fatalf("training not deterministic: %.9f vs %.9f", a.FinalLoss, b.FinalLoss)
	}
	var diff bool
	a.Params.VisitSlices(func(name string, s []float32) {
		var other []float32
		b.Params.VisitSlices(func(n2 string, s2 []float32) {
			if n2 == name {
				other = s2
			}
		})
		for i := range s {
			if s[i] != other[i] {
				diff = true
			}
		}
	})
	if diff {
		t.Fatal("trained weights differ across identical runs")
	}
}

func TestPerplexityFinite(t *testing.T) {
	r := TestModel()
	held := r.Held
	if len(held) > 300 {
		held = held[:300]
	}
	ppl := Perplexity(r.Params, held, nil, 16)
	if math.IsNaN(ppl) || math.IsInf(ppl, 0) || ppl <= 1 {
		t.Fatalf("perplexity %g not sane", ppl)
	}
	if ppl > float64(r.Params.Cfg.VocabSize)*2 {
		t.Fatalf("perplexity %g worse than uniform", ppl)
	}
}

func TestRegistryCaches(t *testing.T) {
	a := TestModel()
	b := TestModel()
	if a != b {
		t.Fatal("TestModel should return the cached instance")
	}
}

func TestDecoderMatchesTrainingForward(t *testing.T) {
	// The decode path (KV cache, incremental) and the training forward
	// (full sequence) must produce identical logits. This is the forward
	// pass's one independent reference: a prompt spanning several engine
	// chunks, then single steps.
	cfg := numGradConfig()
	cfg.MaxSeq = 96
	params := model.NewParams(cfg, 7)
	const promptLen = 70 // three Decoder.Prompt chunks
	tokens := make([]int, promptLen+8)
	for i := range tokens {
		tokens[i] = (i*7 + 1) % cfg.VocabSize
	}
	acts := newSeqActs(cfg, len(tokens))
	forwardSeq(params, tokens, acts)
	check := func(pos int, logits []float32) {
		t.Helper()
		for v := 0; v < cfg.VocabSize; v++ {
			if want := acts.logits.At(pos, v); math.Abs(float64(logits[v]-want)) > 1e-4 {
				t.Fatalf("pos %d vocab %d: decode %g vs training %g", pos, v, logits[v], want)
			}
		}
	}

	dec := model.NewDecoder(params, nil)
	check(promptLen-1, dec.MustPrompt(tokens[:promptLen]))
	// forwardSeq does not compute logits for the last position (no target).
	for pos := promptLen; pos < len(tokens)-1; pos++ {
		check(pos, dec.MustStep(tokens[pos]))
	}
}
