package model_test

import (
	"fmt"
	"sync"
	"testing"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
)

// denseConfig has matrices that do not split evenly into 8-row panels:
// d = 18 rows is two panels and a remainder of 2, fewer panels than the
// widths 3, 5 and 8, and the FFN's 54 rows are six panels and a remainder
// of 6.
func denseConfig() model.Config {
	return model.Config{
		Name:      "dense-odd",
		VocabSize: 40,
		Layers:    2,
		Heads:     3,
		HeadDim:   6,
		FFNMult:   3,
		MaxSeq:    256,
		Eps:       1e-5,
	}
}

// denseShape is a step layout: decode rows (one session each) in one step,
// then an optional prefill chunk in a second (a step is one phase).
type denseShape struct {
	decodes, prefill int
}

func (s denseShape) rows() int { return s.decodes + s.prefill }

// denseStepResult is what one step produced: every entry's logits and every
// KV row the step wrote, flattened in entry, layer, head order.
type denseStepResult struct {
	logits, kv []float32
}

// denseStep builds the shape's sessions with serial prompts, runs the decode
// step and the prefill step on ex, and returns their outputs.
func denseStep(t *testing.T, p *model.Params, shape denseShape, ex exec.Executor) denseStepResult {
	t.Helper()
	cfg := p.Cfg
	var entries []model.BatchEntry
	for i := 0; i < shape.decodes; i++ {
		dec := model.NewDecoder(p, nil)
		dec.Exec = nil
		dec.MustPrompt(testPromptN(i+1, 5+3*i, cfg.VocabSize))
		entries = append(entries, model.BatchEntry{Dec: dec, Tokens: []int{(7 * i) % cfg.VocabSize}, NeedLogits: true})
	}
	if shape.prefill > 0 {
		dec := model.NewDecoder(p, nil)
		dec.Exec = nil
		dec.MustPrompt(testPromptN(9, 4, cfg.VocabSize))
		entries = append(entries, model.BatchEntry{
			Dec: dec, Tokens: testPromptN(10, shape.prefill, cfg.VocabSize), Prefill: true, NeedLogits: true,
		})
	}
	starts := make([]int, len(entries))
	for i := range entries {
		starts[i] = entries[i].Dec.Len()
	}
	// One engine per step: an entry's logits are a view valid until the
	// engine's next Step.
	model.NewBatchEngine(p).Step(entries[:shape.decodes], nil, ex)
	model.NewBatchEngine(p).Step(entries[shape.decodes:], nil, ex)
	var res denseStepResult
	for i := range entries {
		ent := &entries[i]
		if ent.Err != nil {
			t.Fatalf("entry %d: %v", i, ent.Err)
		}
		res.logits = append(res.logits, ent.Logits...)
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				keys, vals := ent.Dec.Cache(l, h)
				for pos := starts[i]; pos < ent.Dec.Len(); pos++ {
					res.kv = append(res.kv, keys.Row(pos)...)
					res.kv = append(res.kv, vals.Row(pos)...)
				}
			}
		}
	}
	return res
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %g, serial %g", what, i, got[i], want[i])
		}
	}
}

// oddVocabConfig is TestConfig with a vocabulary of 61: the logits GEMV ends
// in a 5-row remainder past its last whole panel.
func oddVocabConfig() model.Config {
	cfg := model.TestConfig()
	cfg.Name = "micro-vocab61"
	cfg.VocabSize = 61
	return cfg
}

// TestDenseStagesBitIdenticalAcrossWidths pins the dense stages' split: one
// row cut at multiples of 8 (whole panels) of the output rows, several rows
// cut into blocks of whole rows, on pools wider than a matrix has panels —
// logits and written KV rows must equal the nil executor's bit for bit.
func TestDenseStagesBitIdenticalAcrossWidths(t *testing.T) {
	shapes := []denseShape{
		{decodes: 1},
		{decodes: 2},
		{decodes: 1, prefill: 2},
		{decodes: 3, prefill: 30},
	}
	for _, cfg := range []model.Config{denseConfig(), model.TestConfig(), oddVocabConfig()} {
		p := model.NewParams(cfg, 23)
		for _, shape := range shapes {
			want := denseStep(t, p, shape, nil)
			for _, width := range []int{2, 3, 5, 8} {
				t.Run(fmt.Sprintf("%s/R=%d/width=%d", cfg.Name, shape.rows(), width), func(t *testing.T) {
					pool := exec.NewPool(width)
					defer pool.Close()
					got := denseStep(t, p, shape, pool)
					sameBits(t, "logits", got.logits, want.logits)
					sameBits(t, "kv", got.kv, want.kv)
				})
			}
		}
	}
}

// TestDenseStagesPoolRace runs four decoders on four goroutines over one
// private Pool(3) — a Run that finds the pool held by another goroutine runs
// inline — through prompt chunks and decode steps, and compares every logit
// with a serial run.
func TestDenseStagesPoolRace(t *testing.T) {
	cfg := model.TestConfig()
	p := model.NewParams(cfg, 29)
	const workers, steps = 4, 8
	run := func(w int, ex exec.Executor) []float32 {
		dec := model.NewDecoder(p, nil)
		dec.Exec = ex
		// 45 prompt tokens: one 32-row chunk and a 13-row remainder.
		out := append([]float32(nil), dec.MustPrompt(testPromptN(w+1, 45, cfg.VocabSize))...)
		for i := 0; i < steps; i++ {
			out = append(out, dec.MustStep((w*5+i)%cfg.VocabSize)...)
		}
		return out
	}
	want := make([][]float32, workers)
	for w := range want {
		want[w] = run(w, nil)
	}
	pool := exec.NewPool(3)
	defer pool.Close()
	got := make([][]float32, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = run(w, pool)
		}()
	}
	wg.Wait()
	for w := range want {
		sameBits(t, fmt.Sprintf("worker %d logits", w), got[w], want[w])
	}
}

// BenchmarkBatchEngineStep times one engine step of the stand-in model that
// benchmark/ decodes: R=1 is a library decode step at context 64 to 192 (the
// decode_short range), R=32 a prompt chunk at position 0. Serial runs every
// stage inline; Pool2 splits the dense stages and attention over two slots.
func BenchmarkBatchEngineStep(b *testing.B) {
	cfg := model.Family()[4].StandIn
	p := model.NewParams(cfg, 1)
	tokens := testPromptN(3, 192, cfg.VocabSize)
	for _, arm := range []struct {
		name string
		ex   exec.Executor
	}{{"Serial", exec.Serial{}}, {"Pool2", exec.NewPool(2)}} {
		dec := model.NewDecoder(p, nil)
		dec.Exec = arm.ex
		b.Run("R=1/"+arm.name, func(b *testing.B) {
			dec.Reset()
			dec.MustPrompt(tokens[:64])
			for b.Loop() {
				if dec.Len() == len(tokens) {
					dec.Rollback(64)
				}
				dec.MustStep(tokens[dec.Len()])
			}
		})
		b.Run("R=32/"+arm.name, func(b *testing.B) {
			for b.Loop() {
				dec.Reset()
				dec.MustPrompt(tokens[:32])
			}
		})
		arm.ex.Close()
	}
}
