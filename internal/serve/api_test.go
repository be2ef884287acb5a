package serve

import (
	"context"
	"errors"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/tensor"
	"tokenpicker/internal/train"
)

func TestGenerateRequestValidate(t *testing.T) {
	cases := []struct {
		name     string
		req      GenerateRequest
		field    string
		sentinel error // optional finer-grained errors.Is target
	}{
		{"empty prompt", GenerateRequest{}, "prompt", ErrEmptyPrompt},
		{"negative max tokens", GenerateRequest{Prompt: []int{1}, MaxTokens: -1}, "max_tokens", nil},
		{"negative temperature", GenerateRequest{Prompt: []int{1},
			Sampling: sample.Config{Temperature: -1}}, "sampling.temperature", sample.ErrInvalidConfig},
		// The satellite fix: a greedy request carrying a seed is
		// contradictory and rejected, not silently stripped.
		{"greedy with seed", GenerateRequest{Prompt: []int{1},
			Sampling: sample.Config{Seed: 7}}, "sampling.seed", sample.ErrInvalidConfig},
		{"empty stop sequence", GenerateRequest{Prompt: []int{1}, Stop: [][]int{{}}}, "stop", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.req)
			}
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("error %v does not match ErrInvalidRequest", err)
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error %v is not a *ValidationError", err)
			}
			if ve.Field != tc.field {
				t.Fatalf("field %q, want %q (%v)", ve.Field, tc.field, err)
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Fatalf("error %v does not unwrap to %v", err, tc.sentinel)
			}
		})
	}
	if err := (&GenerateRequest{Prompt: []int{1, 2},
		Sampling: sample.Config{Temperature: 0.8, TopK: 4, Seed: 3},
		Stop:     [][]int{{5, 6}}}).Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestSubmitRejectsOutOfVocabEverywhere(t *testing.T) {
	params := model.NewParams(model.TestConfig(), 9)
	srv := NewServer(params, Config{Workers: 1})
	defer srv.Close()
	big := params.Cfg.VocabSize

	for name, req := range map[string]GenerateRequest{
		"stop":       {Prompt: []int{1}, Stop: [][]int{{big}}},
		"logit bias": {Prompt: []int{1}, Sampling: sample.Config{Temperature: 1, LogitBias: map[int]float32{big: 1}}},
	} {
		if _, err := srv.Submit(context.Background(), req); !errors.Is(err, ErrBadToken) {
			t.Fatalf("%s out of vocab: %v, want ErrBadToken", name, err)
		}
	}
}

// TestSamplerGreedyEquivalence is the redesign's bit-compatibility gate:
// for every kernel the repo ships, under both the dense provider and the
// block-paged pool, a greedy decode driven by the new sampler chain must
// pick exactly the tokens the pre-redesign inline argmax picked.
func TestSamplerGreedyEquivalence(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 33)
	pool := NewPool(16, cfg.HeadDim, 0)
	prompt := testTokens(40, 3, cfg.VocabSize)
	const steps = 32

	providers := map[string]model.CacheProvider{
		"dense": nil,
		"paged": pool.Provider(),
	}
	for kname, mk := range prefixTestKernels(cfg) {
		for pname, prov := range providers {
			t.Run(kname+"/"+pname, func(t *testing.T) {
				// Legacy greedy path: inline tensor.Argmax over raw logits.
				legacyDec := model.NewDecoderWith(params, mk(), prov)
				legacy := make([]int, 0, steps)
				logits := legacyDec.MustPrompt(prompt)
				tok := tensor.Argmax(logits)
				for len(legacy) < steps {
					legacy = append(legacy, tok)
					tok = tensor.Argmax(legacyDec.MustStep(tok))
				}
				legacyDec.Release()

				// New path: the zero-value sampler chain.
				chain := sample.MustNew(sample.Config{})
				chainDec := model.NewDecoderWith(params, mk(), prov)
				hist := append([]int(nil), prompt...)
				got := make([]int, 0, steps)
				logits = chainDec.MustPrompt(prompt)
				tok = chain.Sample(logits, hist)
				for len(got) < steps {
					got = append(got, tok)
					hist = append(hist, tok)
					tok = chain.Sample(chainDec.MustStep(tok), hist)
				}
				chainDec.Release()

				for i := range legacy {
					if got[i] != legacy[i] {
						t.Fatalf("token %d: sampler chain %d != legacy argmax %d", i, got[i], legacy[i])
					}
				}
			})
		}
	}
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("paged decoders leaked blocks: %+v", st)
	}
}

// samplingReference decodes single-tenant on a dense decoder with the
// given chain config — the ground truth for the determinism matrix.
func samplingReference(t *testing.T, params *model.Params, mk func() model.Kernel,
	cfg sample.Config, prompt []int, maxNew int) []int {
	t.Helper()
	chain := sample.MustNew(cfg)
	dec := model.NewDecoder(params, mk())
	logits, err := dec.Prompt(prompt)
	if err != nil {
		t.Fatalf("reference prompt: %v", err)
	}
	hist := append([]int(nil), prompt...)
	out := make([]int, 0, maxNew)
	tok := chain.Sample(logits, hist)
	for len(out) < maxNew {
		out = append(out, tok)
		hist = append(hist, tok)
		if len(out) == maxNew {
			break
		}
		logits, err = dec.Step(tok)
		if err != nil {
			t.Fatalf("reference step: %v", err)
		}
		tok = chain.Sample(logits, hist)
	}
	return out
}

// TestSamplingDeterministicAcrossEngines is the seeded-sampling
// counterpart of the greedy equivalence matrix: the same (seed, config,
// prompt) must generate the identical token sequence on a dense serial
// decoder and through the server under paged storage, with prefix sharing
// on and off — logits are bit-identical across those axes, so the seeded
// chain must be too.
func TestSamplingDeterministicAcrossEngines(t *testing.T) {
	r := train.TestModel()
	const maxNew = 24
	prompt := r.Held[:48]
	scfg := sample.Config{Temperature: 0.9, TopK: 24, TopP: 0.95,
		RepetitionPenalty: 1.1, Seed: 42}
	mk := func() model.Kernel { return attention.NewQuantizedExact() }

	want := samplingReference(t, r.Params, mk, scfg, prompt, maxNew)

	run := func(t *testing.T, share bool, submits int) {
		srv := NewServer(r.Params, Config{
			Workers:     2,
			BlockRows:   16,
			SharePrefix: share,
			NewKernel:   mk,
		})
		defer srv.Close()
		for s := 0; s < submits; s++ {
			st, err := srv.Submit(context.Background(), GenerateRequest{
				Prompt: prompt, MaxTokens: maxNew, Sampling: scfg,
			})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			var got []int
			for ev := range st.Events() {
				got = append(got, ev.Token)
			}
			if res := st.Result(); res.Reason != ReasonLength || res.Err != nil {
				t.Fatalf("finished %q err=%v", res.Reason, res.Err)
			}
			if len(got) != len(want) {
				t.Fatalf("submit %d emitted %d tokens, want %d", s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("submit %d token %d: served %d != dense serial %d", s, i, got[i], want[i])
				}
			}
		}
	}
	t.Run("unshared", func(t *testing.T) { run(t, false, 1) })
	// Sharing on: the second submit adopts the first's published prefix and
	// must still re-generate the identical sequence.
	t.Run("shared", func(t *testing.T) { run(t, true, 2) })
}

// TestStopSequenceEndsSession drives the engine-level stop contract: the
// session finishes ReasonStop the moment the generated tail matches,
// Result records which sequence matched, and the matched tokens were
// emitted.
func TestStopSequenceEndsSession(t *testing.T) {
	r := train.TestModel()
	prompt := r.Held[:32]
	const maxNew = 16
	srv := NewServer(r.Params, Config{Workers: 1, BlockRows: 16})
	defer srv.Close()

	// Greedy probe: what would the session emit unstopped?
	probe := decodeSerial(t, r.Params, nil, prompt, maxNew)
	stop := [][]int{{probe[0], 99999999 % r.Params.Cfg.VocabSize}, probe[2:4]}

	st, err := srv.Submit(context.Background(), GenerateRequest{
		Prompt: prompt, MaxTokens: maxNew, Stop: stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for ev := range st.Events() {
		got = append(got, ev.Token)
	}
	res := st.Result()
	if res.Reason != ReasonStop || res.Err != nil {
		t.Fatalf("finished %q err=%v, want stop", res.Reason, res.Err)
	}
	if res.StopSeq != 1 {
		t.Fatalf("StopSeq %d, want 1 (the matching sequence)", res.StopSeq)
	}
	if len(res.StopTokens) != 2 || res.StopTokens[0] != probe[2] || res.StopTokens[1] != probe[3] {
		t.Fatalf("StopTokens %v, want %v", res.StopTokens, probe[2:4])
	}
	// The match completes at generated index 3: four tokens emitted.
	if len(got) != 4 || res.Usage.GeneratedTokens != 4 {
		t.Fatalf("emitted %d tokens (usage %d), want 4", len(got), res.Usage.GeneratedTokens)
	}
	for i := range got {
		if got[i] != probe[i] {
			t.Fatalf("token %d: %d != unstopped greedy %d", i, got[i], probe[i])
		}
	}
	// Non-stop finishes report StopSeq -1, never a valid index.
	st2, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := st2.Result(); res.Reason != ReasonLength || res.StopSeq != -1 {
		t.Fatalf("length finish carries StopSeq %d, want -1", res.StopSeq)
	}
}

// TestStreamNextPullAPI consumes a session through the pull interface:
// events arrive indexed and timestamped, Next returns ErrStreamDone after
// the last event, and Result is immediately available.
func TestStreamNextPullAPI(t *testing.T) {
	r := train.TestModel()
	const maxNew = 8
	srv := NewServer(r.Params, Config{Workers: 1, BlockRows: 16})
	defer srv.Close()

	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: r.Held[:16], MaxTokens: maxNew})
	if err != nil {
		t.Fatal(err)
	}
	var prev Event
	for i := 0; ; i++ {
		ev, err := st.Next(context.Background())
		if err != nil {
			if !errors.Is(err, ErrStreamDone) {
				t.Fatalf("Next: %v", err)
			}
			if i != maxNew {
				t.Fatalf("stream ended after %d events, want %d", i, maxNew)
			}
			break
		}
		if ev.Index != i {
			t.Fatalf("event %d carries index %d", i, ev.Index)
		}
		if ev.Elapsed <= 0 || ev.Elapsed < prev.Elapsed {
			t.Fatalf("event %d elapsed %v after %v: not monotonic", i, ev.Elapsed, prev.Elapsed)
		}
		prev = ev
	}
	if res := st.Result(); res.Reason != ReasonLength {
		t.Fatalf("result %+v", res)
	}
	// A canceled consumer context surfaces as ctx.Err without ending the
	// stream's own state.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Next(ctx); !errors.Is(err, ErrStreamDone) && !errors.Is(err, context.Canceled) {
		t.Fatalf("Next on done stream with canceled ctx: %v", err)
	}
}

// TestStreamCancelDetaches cancels from the consumer side mid-generation:
// the session must finish ReasonCanceled and release every block, without
// the consumer touching the submit context.
func TestStreamCancelDetaches(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{Workers: 1, BlockRows: 16})
	defer srv.Close()

	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: r.Held[:16], MaxTokens: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(context.Background()); err != nil {
		t.Fatalf("first event: %v", err)
	}
	st.Cancel()
	st.Cancel() // idempotent
	res := st.Result()
	if res.Reason != ReasonCanceled || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("result %+v, want canceled", res)
	}
	if pst := srv.Pool().Stats(); pst.InUse != 0 {
		t.Fatalf("%d blocks leaked by canceled session", pst.InUse)
	}
}

// TestUsageCountsPrefixRows checks the per-request Usage fields against
// engine-level ground truth: a prefix adopter reports the adopted rows and
// they reconcile with the fleet counter. (Preemption recompute accounting
// is cross-checked in TestPreemptRequeueFinishes.)
func TestUsageCountsPrefixRows(t *testing.T) {
	r := train.TestModel()
	prompt := r.Held[:80] // BlockRows 32: 2 full chunks + tail
	srv := NewServer(r.Params, Config{Workers: 1, BlockRows: 32, SharePrefix: true})

	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := st.Result()
	if first.Usage.PrefixHitRows != 0 || first.Usage.PromptTokens != len(prompt) {
		t.Fatalf("publisher usage %+v", first.Usage)
	}
	st2, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	second := st2.Result()
	if second.Usage.PrefixHitRows == 0 {
		t.Fatalf("adopter reports no prefix rows: %+v", second.Usage)
	}
	if second.Usage.PromptTokens != len(prompt) || second.Usage.GeneratedTokens != 4 {
		t.Fatalf("adopter usage %+v", second.Usage)
	}
	srv.Close()
	rep := srv.Report()
	if int64(second.Usage.PrefixHitRows) != rep.Prefix.RowsReused {
		t.Fatalf("session rows %d != fleet rows %d", second.Usage.PrefixHitRows, rep.Prefix.RowsReused)
	}
}
