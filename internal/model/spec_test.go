package model_test

import (
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
)

// specKernels are the generation kernels the speculative verify pass must
// reproduce bit-exactly (the serving-eligible set; spatten's per-sequence
// cascade state excludes it from serving and from speculation alike).
var specKernels = []struct {
	name string
	mk   func() model.Kernel
}{
	{"exact", func() model.Kernel { return &model.ExactKernel{} }},
	{"quantized-exact", func() model.Kernel { return attention.NewQuantizedExact() }},
	{"token-picker", func() model.Kernel { return attention.NewTokenPicker(1e-3) }},
	{"oracle", func() model.Kernel { return attention.NewOracle(1e-3) }},
}

// specEmit drives a SpecDecoder run: it samples each verified position,
// appends to the shared history, and stops at the token budget.
type specEmit struct {
	sample  func([]float32, []int) int
	history *[]int
	out     []int
	limit   int
}

func (e *specEmit) Emit(logits []float32) (int, bool) {
	tok := e.sample(logits, *e.history)
	e.out = append(e.out, tok)
	*e.history = append(*e.history, tok)
	return tok, len(e.out) >= e.limit
}

// runSpeculative generates maxNew tokens with draft-and-verify decoding,
// mirroring the plain Prompt+Step loop's sampling order exactly.
func runSpeculative(t *testing.T, p *model.Params, gen model.Kernel, ex exec.Executor,
	draft model.DraftSource, maxK int, prompt []int, maxNew int,
	pick func([]float32, []int) int) ([]int, model.SpecStats) {
	t.Helper()
	dec := model.NewDecoder(p, gen)
	history := append([]int(nil), prompt...)
	first := pick(dec.MustPrompt(prompt), history)
	history = append(history, first)
	em := &specEmit{sample: pick, history: &history, out: []int{first}, limit: maxNew}
	sd := model.NewSpecDecoder(dec, draft, maxK)
	eng := model.NewBatchEngine(p)
	for len(em.out) < maxNew {
		if _, err := sd.Step(eng, gen, ex, history, maxNew-len(em.out)-1, em); err != nil {
			t.Fatalf("speculative step: %v", err)
		}
	}
	return em.out, sd.Stats()
}

// TestSpeculativeDecodeMatchesSequential is the model-level half of the
// speculation-on == speculation-off gate: for every serving kernel, executor
// width, and draft source (including none), the draft-and-verify walk over
// dense caches must emit exactly the sequential Prompt+Step stream.
func TestSpeculativeDecodeMatchesSequential(t *testing.T) {
	cfg := model.TestConfig()
	p := model.NewParams(cfg, 11)
	const maxNew = 24
	prompt := testPromptN(3, 17, cfg.VocabSize)
	greedy := func(lg []float32, _ []int) int { return argmax32(lg) }

	drafts := []struct {
		name string
		mk   func() model.DraftSource
	}{
		{"none", func() model.DraftSource { return nil }},
		{"ngram", func() model.DraftSource { return &model.NgramDraft{} }},
	}
	for _, kc := range specKernels {
		_, want := decodeSeq(t, p, kc.mk(), prompt, maxNew)
		for _, width := range []int{1, 8} {
			var ex exec.Executor = exec.Serial{}
			if width > 1 {
				pool := exec.NewPool(width)
				defer pool.Close()
				ex = pool
			}
			for _, dc := range drafts {
				name := kc.name + "/width=" + string(rune('0'+width)) + "/" + dc.name
				t.Run(name, func(t *testing.T) {
					got, st := runSpeculative(t, p, kc.mk(), ex, dc.mk(), 4, prompt, maxNew, greedy)
					if len(got) != len(want) {
						t.Fatalf("emitted %d tokens, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("token %d: speculative %d != sequential %d", i, got[i], want[i])
						}
					}
					if st.Drafted != st.Accepted+st.RolledBack {
						t.Fatalf("stats drafted %d != accepted %d + rolled back %d",
							st.Drafted, st.Accepted, st.RolledBack)
					}
					if st.Emitted != int64(maxNew-1) {
						t.Fatalf("stats emitted %d, want %d", st.Emitted, maxNew-1)
					}
					if dc.name == "none" && st.Drafted != 0 {
						t.Fatalf("nil draft source drafted %d tokens", st.Drafted)
					}
				})
			}
		}
	}
}

// TestNgramDraftPromptLookup pins the prompt-lookup proposal rule: the
// longest recent suffix match wins, proposals continue its earlier
// occurrence, and histories without repeats propose nothing.
func TestNgramDraftPromptLookup(t *testing.T) {
	d := &model.NgramDraft{MaxN: 3}
	dst := make([]int, 8)

	// ... 7 8 9 | 5 6 | 7 8 9 → suffix [7 8 9] matched at the start,
	// followed by [5 6 7 8 9].
	hist := []int{7, 8, 9, 5, 6, 7, 8, 9}
	if n := d.Draft(dst, hist, 4); n != 4 || dst[0] != 5 || dst[1] != 6 || dst[2] != 7 || dst[3] != 8 {
		t.Fatalf("draft = %v (n=%d), want [5 6 7 8]", dst[:n], n)
	}
	// max clamps the proposal length.
	if n := d.Draft(dst, hist, 2); n != 2 || dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("clamped draft = %v (n=%d), want [5 6]", dst[:n], n)
	}
	// No repeated suffix → nothing proposed.
	if n := d.Draft(dst, []int{1, 2, 3, 4, 5}, 4); n != 0 {
		t.Fatalf("distinct history proposed %d tokens", n)
	}
	// Degenerate histories must not panic or propose.
	if n := d.Draft(dst, []int{1}, 4); n != 0 {
		t.Fatalf("single-token history proposed %d tokens", n)
	}
	if n := d.Draft(dst, hist, 0); n != 0 {
		t.Fatalf("max=0 proposed %d tokens", n)
	}
}

// scriptedDraft proposes continuations of a known token stream — a perfect
// oracle when the stream is the model's own greedy continuation, and a
// guaranteed-wrong source when offset.
type scriptedDraft struct {
	full   []int // prompt + full greedy continuation
	offset int   // added mod vocab to every proposal (0 = perfect)
	vocab  int
}

func (d *scriptedDraft) Draft(dst, history []int, max int) int {
	if len(history) >= len(d.full) {
		return 0
	}
	n := 0
	for n < max && len(history)+n < len(d.full) {
		dst[n] = (d.full[len(history)+n] + d.offset) % d.vocab
		n++
	}
	return n
}

// TestSpecDecoderAdaptsWindow pins the acceptance-driven window: a perfect
// draft source grows k to MaxK and accepts everything; a guaranteed-wrong
// one shrinks k to 1 and accepts nothing — while both still emit the exact
// sequential stream.
func TestSpecDecoderAdaptsWindow(t *testing.T) {
	cfg := model.TestConfig()
	p := model.NewParams(cfg, 31)
	const maxNew = 20
	prompt := testPromptN(7, 12, cfg.VocabSize)
	_, seq := decodeSeq(t, p, &model.ExactKernel{}, prompt, maxNew+8)
	full := append(append([]int(nil), prompt...), seq...)
	greedy := func(lg []float32, _ []int) int { return argmax32(lg) }

	t.Run("perfect", func(t *testing.T) {
		dec := model.NewDecoder(p, &model.ExactKernel{})
		history := append([]int(nil), prompt...)
		first := greedy(dec.MustPrompt(prompt), history)
		history = append(history, first)
		em := &specEmit{sample: greedy, history: &history, out: []int{first}, limit: maxNew}
		sd := model.NewSpecDecoder(dec, &scriptedDraft{full: full, vocab: cfg.VocabSize}, 6)
		eng := model.NewBatchEngine(p)
		for len(em.out) < maxNew {
			if _, err := sd.Step(eng, &model.ExactKernel{}, nil, history, maxNew-len(em.out)-1, em); err != nil {
				t.Fatal(err)
			}
		}
		st := sd.Stats()
		if st.RolledBack != 0 {
			t.Fatalf("perfect draft rolled back %d tokens", st.RolledBack)
		}
		if sd.CurK() != 6 {
			t.Fatalf("window %d after perfect drafting, want MaxK=6", sd.CurK())
		}
		// 1 prompt-sampled + per pass (accepted + bonus): far fewer passes
		// than tokens.
		if st.Passes >= int64(maxNew-1) {
			t.Fatalf("perfect drafting took %d passes for %d tokens", st.Passes, maxNew-1)
		}
		for i, tok := range em.out {
			if tok != seq[i] {
				t.Fatalf("token %d: %d != sequential %d", i, tok, seq[i])
			}
		}
	})

	t.Run("wrong", func(t *testing.T) {
		dec := model.NewDecoder(p, &model.ExactKernel{})
		history := append([]int(nil), prompt...)
		first := greedy(dec.MustPrompt(prompt), history)
		history = append(history, first)
		em := &specEmit{sample: greedy, history: &history, out: []int{first}, limit: maxNew}
		sd := model.NewSpecDecoder(dec, &scriptedDraft{full: full, offset: 1, vocab: cfg.VocabSize}, 6)
		eng := model.NewBatchEngine(p)
		for len(em.out) < maxNew {
			if _, err := sd.Step(eng, &model.ExactKernel{}, nil, history, maxNew-len(em.out)-1, em); err != nil {
				t.Fatal(err)
			}
		}
		st := sd.Stats()
		if st.Accepted != 0 {
			t.Fatalf("wrong draft accepted %d tokens", st.Accepted)
		}
		if sd.CurK() != 1 {
			t.Fatalf("window %d after constant rejection, want 1", sd.CurK())
		}
		for i, tok := range em.out {
			if tok != seq[i] {
				t.Fatalf("token %d: %d != sequential %d", i, tok, seq[i])
			}
		}
	})
}

// TestDecoderRollbackRebuildsState pins the Rollback contract on dense
// caches: truncating to n and re-stepping must produce logits bit-identical
// to a fresh decoder that never overshot, and out-of-range rollbacks panic.
func TestDecoderRollbackRebuildsState(t *testing.T) {
	cfg := model.TestConfig()
	p := model.NewParams(cfg, 41)
	prompt := testPromptN(9, 14, cfg.VocabSize)

	dec := model.NewDecoder(p, nil)
	dec.MustPrompt(prompt)
	n0 := dec.Len()
	// Overshoot with garbage the rollback must fully erase.
	for i := 0; i < 5; i++ {
		dec.MustStep((i * 7) % cfg.VocabSize)
	}
	dec.Rollback(n0)
	if dec.Len() != n0 {
		t.Fatalf("Len %d after rollback, want %d", dec.Len(), n0)
	}

	ref := model.NewDecoder(p, nil)
	ref.MustPrompt(prompt)
	cont := testPromptN(2, 6, cfg.VocabSize)
	for _, tok := range cont {
		got := dec.MustStep(tok)
		want := ref.MustStep(tok)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("logit %d after rollback diverged: %g != %g", j, got[j], want[j])
			}
		}
	}

	// Rollback(Len()) is a no-op; out-of-range panics.
	dec.Rollback(dec.Len())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Rollback past Len did not panic")
			}
		}()
		dec.Rollback(dec.Len() + 1)
	}()
}
