package model_test

import (
	"errors"
	"fmt"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
)

// batchKernels are the generation kernels whose outputs must not depend on
// how rows are grouped into engine steps. Spatten keeps per-sequence pruning state, so it is
// only valid when every decode row belongs to the same session; its entry
// caps the batch at one session (the serving engine refuses it outright).
var batchKernels = []struct {
	name        string
	mk          func() model.Kernel
	maxSessions int
}{
	{"exact", func() model.Kernel { return &model.ExactKernel{} }, 4},
	{"quantized-exact", func() model.Kernel { return attention.NewQuantizedExact() }, 4},
	{"token-picker", func() model.Kernel { return attention.NewTokenPicker(1e-3) }, 4},
	{"oracle", func() model.Kernel { return attention.NewOracle(1e-3) }, 4},
	{"spatten", func() model.Kernel {
		cfg := model.TestConfig()
		return attention.NewSpAtten(attention.SpAttenConfig{
			KeepRatio: 0.5, MinKeep: 4,
			Layers: cfg.Layers, Heads: cfg.Heads,
			Cascade: true, Bits: 12,
		})
	}, 1},
}

func testPromptN(seed, n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (seed*31 + i*13) % vocab
	}
	return p
}

func argmax32(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// decodeSeq runs the one-row-per-step reference: the prompt one token at a
// time, then greedy decode, returning every logits vector the session sampled
// from.
func decodeSeq(t *testing.T, p *model.Params, k model.Kernel, prompt []int, maxNew int) ([][]float32, []int) {
	t.Helper()
	dec := model.NewDecoder(p, k)
	var last []float32
	for i := range prompt {
		last = dec.MustPrompt(prompt[i : i+1])
	}
	logits := [][]float32{append([]float32(nil), last...)}
	toks := []int{argmax32(logits[0])}
	for len(toks) < maxNew {
		l := append([]float32(nil), dec.MustStep(toks[len(toks)-1])...)
		logits = append(logits, l)
		toks = append(toks, argmax32(l))
	}
	return logits, toks
}

// TestBatchEngineMatchesSequential is the model-level row-count invariance
// gate: chunked prefill steps interleaved with decode steps that carry rows of
// several sessions must reproduce the one-row-per-step walk of each session
// alone bit-exactly, for every kernel and executor width.
func TestBatchEngineMatchesSequential(t *testing.T) {
	cfg := model.TestConfig()
	p := model.NewParams(cfg, 11)
	const maxNew = 6
	const chunk = 4
	widths := []int{1, 2, 8}
	for _, kc := range batchKernels {
		for _, width := range widths {
			t.Run(kc.name+"/width="+string(rune('0'+width)), func(t *testing.T) {
				var ex exec.Executor = exec.Serial{}
				if width > 1 {
					pool := exec.NewPool(width)
					defer pool.Close()
					ex = pool
				}
				prompts := [][]int{
					testPromptN(1, 5, cfg.VocabSize),
					testPromptN(2, 9, cfg.VocabSize),
					testPromptN(3, 3, cfg.VocabSize),
					testPromptN(4, 12, cfg.VocabSize),
				}[:kc.maxSessions]

				type sess struct {
					dec       *model.Decoder
					prompt    []int
					promptPos int
					logits    [][]float32
					toks      []int
				}
				sessions := make([]*sess, len(prompts))
				for i, pr := range prompts {
					sessions[i] = &sess{dec: model.NewDecoder(p, nil), prompt: pr}
				}
				eng := model.NewBatchEngine(p)
				gen := kc.mk()
				var entries []model.BatchEntry
				var owners []*sess
				// step runs one single-phase step: every session's decode row,
				// or every pending prompt's next chunk. It reports whether
				// any session took part.
				step := func(prefill bool) bool {
					entries, owners = entries[:0], owners[:0]
					for _, s := range sessions {
						if prefill && s.promptPos < len(s.prompt) {
							end := min(s.promptPos+chunk, len(s.prompt))
							entries = append(entries, model.BatchEntry{
								Dec:        s.dec,
								Tokens:     s.prompt[s.promptPos:end],
								Prefill:    true,
								NeedLogits: end == len(s.prompt),
							})
							owners = append(owners, s)
						}
						if !prefill && s.promptPos == len(s.prompt) && len(s.toks) > 0 && len(s.toks) < maxNew {
							entries = append(entries, model.BatchEntry{
								Dec:        s.dec,
								Tokens:     s.toks[len(s.toks)-1:],
								NeedLogits: true,
							})
							owners = append(owners, s)
						}
					}
					eng.Step(entries, gen, ex)
					for i := range entries {
						ent, s := &entries[i], owners[i]
						if ent.Err != nil {
							t.Fatalf("entry error: %v", ent.Err)
						}
						if ent.Prefill {
							s.promptPos += len(ent.Tokens)
						}
						if ent.Logits != nil {
							l := append([]float32(nil), ent.Logits...)
							s.logits = append(s.logits, l)
							s.toks = append(s.toks, argmax32(l))
						}
					}
					return len(entries) > 0
				}
				for {
					decoded := step(false)
					if prefilled := step(true); !decoded && !prefilled {
						break
					}
				}

				for i, s := range sessions {
					wantLogits, wantToks := decodeSeq(t, p, kc.mk(), s.prompt, maxNew)
					if len(s.toks) != len(wantToks) {
						t.Fatalf("session %d: %d tokens, want %d", i, len(s.toks), len(wantToks))
					}
					for j := range wantToks {
						if s.toks[j] != wantToks[j] {
							t.Fatalf("session %d token %d: batched %d, sequential %d",
								i, j, s.toks[j], wantToks[j])
						}
						for v := range wantLogits[j] {
							if s.logits[j][v] != wantLogits[j][v] {
								t.Fatalf("session %d step %d vocab %d: batched vs sequential logits diverge",
									i, j, v)
							}
						}
					}
					if s.dec.Len() != len(s.prompt)+maxNew-1 {
						t.Fatalf("session %d consumed %d tokens, want %d",
							i, s.dec.Len(), len(s.prompt)+maxNew-1)
					}
				}
			})
		}
	}
}

// TestBatchEngineIsolatesStorageErrors checks that one entry hitting
// ErrContextFull reports it on that entry alone while the rest of the batch
// advances normally.
func TestBatchEngineIsolatesStorageErrors(t *testing.T) {
	cfg := model.TestConfig()
	cfg.MaxSeq = 8
	p := model.NewParams(cfg, 13)
	eng := model.NewBatchEngine(p)

	full := model.NewDecoder(p, nil)
	full.MustPrompt(testPromptN(5, 8, cfg.VocabSize))
	ok := model.NewDecoder(p, nil)
	ok.MustPrompt(testPromptN(6, 3, cfg.VocabSize))

	entries := []model.BatchEntry{
		{Dec: full, Tokens: []int{1}, NeedLogits: true},
		{Dec: ok, Tokens: []int{2}, NeedLogits: true},
	}
	eng.Step(entries, nil, nil)
	if !errors.Is(entries[0].Err, model.ErrContextFull) {
		t.Fatalf("full entry err = %v, want ErrContextFull", entries[0].Err)
	}
	if entries[0].Logits != nil {
		t.Fatal("errored entry must not carry logits")
	}
	if full.Len() != 8 {
		t.Fatalf("errored entry consumed tokens: len %d, want 8", full.Len())
	}
	if entries[1].Err != nil || entries[1].Logits == nil || ok.Len() != 4 {
		t.Fatalf("healthy entry disturbed: err=%v len=%d", entries[1].Err, ok.Len())
	}
	// The surviving entry matches a sequential step bit for bit.
	ref := model.NewDecoder(p, nil)
	ref.MustPrompt(testPromptN(6, 3, cfg.VocabSize))
	want := ref.MustStep(2)
	for v := range want {
		if entries[1].Logits[v] != want[v] {
			t.Fatalf("vocab %d: batched %g != sequential %g", v, entries[1].Logits[v], want[v])
		}
	}
}

// TestBatchEngineOrderingPanics pins the layout contract: a step's entries
// are all generation-phase or all prefill, and a multi-token generation entry
// (a verify pass) makes up its step alone, while several one-token decode
// entries still share one.
func TestBatchEngineOrderingPanics(t *testing.T) {
	p := model.NewParams(model.TestConfig(), 17)
	eng := model.NewBatchEngine(p)
	mustPanic := func(name string, entries []model.BatchEntry) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		eng.Step(entries, nil, nil)
	}
	mustPanic("decode after prefill", []model.BatchEntry{
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1, 2}, Prefill: true},
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1}},
	})
	mustPanic("prefill after decode", []model.BatchEntry{
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1}},
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1, 2}, Prefill: true},
	})
	mustPanic("verify pass before a decode entry", []model.BatchEntry{
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1, 2}},
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1}},
	})
	mustPanic("verify pass after a decode entry", []model.BatchEntry{
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1}},
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1, 2, 3}, NeedLogits: true},
	})

	// Several one-token decode entries share a step; each gets its row.
	decode := []model.BatchEntry{
		{Dec: model.NewDecoder(p, nil), Tokens: []int{1}, NeedLogits: true},
		{Dec: model.NewDecoder(p, nil), Tokens: []int{2}, NeedLogits: true},
		{Dec: model.NewDecoder(p, nil), Tokens: []int{3}, NeedLogits: true},
	}
	eng.Step(decode, nil, nil)
	V := p.Cfg.VocabSize
	for i, ent := range decode {
		if ent.Err != nil || ent.Dec.Len() != 1 || len(ent.Logits) != V || len(ent.LogitsAll) != V {
			t.Fatalf("decode entry %d: err=%v len=%d logits %d/%d", i, ent.Err, ent.Dec.Len(), len(ent.Logits), len(ent.LogitsAll))
		}
	}
	// A lone verify pass gets every position's logits, the last as Logits.
	verify := []model.BatchEntry{{Dec: model.NewDecoder(p, nil), Tokens: []int{1, 2, 3}, NeedLogits: true}}
	eng.Step(verify, nil, nil)
	if ent := verify[0]; ent.Err != nil || len(ent.LogitsAll) != 3*V || &ent.Logits[0] != &ent.LogitsAll[2*V] {
		t.Fatalf("verify entry: err=%v logits %d, want %d rows ending in Logits", ent.Err, len(ent.LogitsAll), 3)
	}
}

// TestBatchEngineSteadyStateZeroAllocs guards the batched decode hot path:
// once scratch has grown and KV capacity covers the measured window, a
// batched step must not allocate — under the serial executor and pools of
// widths 2 and 3 alike, for one decode row (the dense stages split by output
// rows), for four (split by whole rows), and for a four-token verify pass
// rolled back after each step (attention scheduled one task per head).
func TestBatchEngineSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	cfg := model.TestConfig()
	p := model.NewParams(cfg, 19)
	pool2, pool3 := exec.NewPool(2), exec.NewPool(3)
	defer pool2.Close()
	defer pool3.Close()
	executors := []struct {
		name string
		ex   exec.Executor
	}{
		{"serial", exec.Serial{}},
		{"pool", pool2},
		{"pool3", pool3},
	}
	for _, tc := range executors {
		t.Run(tc.name, func(t *testing.T) {
			for _, nSess := range []int{1, 4} {
				t.Run(fmt.Sprintf("R=%d", nSess), func(t *testing.T) {
					eng := model.NewBatchEngine(p)
					entries := make([]model.BatchEntry, nSess)
					tokens := make([][]int, nSess)
					for i := 0; i < nSess; i++ {
						dec := model.NewDecoder(p, nil)
						// 90 prompt rows: dense caches round capacity up to 128, so
						// the measured steps below never cross a growth boundary.
						dec.MustPrompt(testPromptN(i, 90, cfg.VocabSize))
						tokens[i] = []int{i + 1}
						entries[i] = model.BatchEntry{Dec: dec, Tokens: tokens[i], NeedLogits: true}
					}
					step := func() {
						eng.Step(entries, nil, tc.ex)
						for i := range entries {
							if entries[i].Err != nil {
								t.Fatalf("entry %d: %v", i, entries[i].Err)
							}
							tokens[i][0] = argmax32(entries[i].Logits)
						}
					}
					for i := 0; i < 10; i++ {
						step() // warm scratch and per-slot kernel state
					}
					if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
						t.Fatalf("steady-state batched decode allocates %.1f allocs/op, want 0", allocs)
					}
				})
			}
			t.Run("verify=4", func(t *testing.T) {
				eng := model.NewBatchEngine(p)
				dec := model.NewDecoder(p, nil)
				dec.MustPrompt(testPromptN(0, 90, cfg.VocabSize))
				base := dec.Len()
				entries := []model.BatchEntry{{Dec: dec, Tokens: []int{1, 2, 3, 4}, NeedLogits: true}}
				step := func() {
					dec.Rollback(base)
					eng.Step(entries, nil, tc.ex)
					if entries[0].Err != nil {
						t.Fatalf("verify entry: %v", entries[0].Err)
					}
				}
				for i := 0; i < 10; i++ {
					step()
				}
				if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
					t.Fatalf("steady-state verify pass allocates %.1f allocs/op, want 0", allocs)
				}
			})
		})
	}
}
